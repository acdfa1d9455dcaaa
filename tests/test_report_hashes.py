"""Frozen report bytes: the sha256 of the JSON and TSV report of every
scenario at its defaults and at the stress settings.

A refactor must leave every hash unchanged.  Change a literal here only
for an intended change of a report, together with the frozen values in
``perfbench/expected.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coarsegroups.reporting import report_to_json, report_to_tsv
from coarsegroups.scenarios import run_scenario

# (scenario, parameters, all_pass, json sha256, tsv sha256)
FROZEN = [
    (
        "aj_family",
        {},
        True,
        "6d11964939ee823eb600021c71bb9c2b8ccd08b478ac65e674b622a552aa687e",
        "d98f9ae368fd5cb91175232aaba52c448113065168c309e3c006bfcb94dd7162",
    ),
    (
        "heisenberg_pseudometric",
        {},
        True,
        "adbbe5ee5af6bddee988fcefe4d14c68447189735ea0f9292c67319c24ee3101",
        "6321f538252e7fb3f420bbd633d8e2ce67dd12b9cdb21ef9208d026aabf956f2",
    ),
    (
        "heisenberg_pseudometric",
        {"radius": 8},
        True,
        "bd624acb22de779e0db3802701875ca8ef0340f46231c3f88bc79bc630c7bf30",
        "c4ad4f582a96a21f5c4c29184c26038cba0152ca5c72731254a9f0325fc582cd",
    ),
    (
        "heisenberg_separation",
        {},
        True,
        "da4c43351ac31b212e782020913a5ed44bd4ebcf2cba13e5c6423b36c394b3ee",
        "e51ad0a1ebc13920deaff8f598fe6689da2252de96add44cdca5b1d5534edbdb",
    ),
    (
        "powers_of_ten",
        {},
        True,
        "b5f2587929e7cd36789bc6b9fe01145248d76eb9dca2f0a973a25475fa09a2c5",
        "c0b0ca9a4a7d6ce5c2e6b9548df7b1e530ff6f1955c3e2a33cf29af08125ec88",
    ),
    (
        "rho_plus_demo",
        {},
        True,
        "01ea93f94ab6d88763fbd2c628d9781159b439a5ebf45559abe1d9ea2db44468",
        "284e529b4844cc3c19484673aee2ed67acacdac49c084c3e4b16e4159c1b20db",
    ),
    (
        "smith_uniqueness_probe",
        {},
        True,
        "66b39a50249fcc3c761318826802a437d68472e87e84cbc29715a08e29702932",
        "7c5fbf7bb99cb89ca4b6f5bf4b92f76f9e177c676cde3d73408a6ede7a58af39",
    ),
    (
        "smith_uniqueness_probe",
        {"R": 96},
        True,
        "be07c4540bafa570621bf92944abf00a5ce010e2faca974e69b4eea7de4edfe5",
        "819ea320c5323b69e2d33f2c6c3c481e05bab036828b03a0dda4c476b503c35f",
    ),
    (
        "z_quotient_metric",
        {},
        True,
        "0ff0cda793281c8f7e48fd376999e52e876d0716642fdc589a7ac89ec1f52eaa",
        "46df2e7ea963f5802e0dc5dc3dd0ad7d19fd092222231cd891ec330123996047",
    ),
    (
        "z_quotient_metric",
        {"truncation_radius": 200},
        True,
        "727c66a4a3e8bf83b84ac20cb56dcf59710ff5018f38d69b1e101b48565f8c9f",
        "8cbe3d2de6a725e65d53a211430f51e750357701fa182309a912fe695abbecfe",
    ),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name,params,all_pass,json_sha,tsv_sha",
    FROZEN,
    ids=[name + "".join(f"-{k}={v}" for k, v in params.items()) for name, params, *_ in FROZEN],
)
def test_report_bytes_frozen(name, params, all_pass, json_sha, tsv_sha):
    report = run_scenario(name, **params)
    assert report.all_passed is all_pass
    assert _sha256(report_to_json(report)) == json_sha
    assert _sha256(report_to_tsv(report)) == tsv_sha


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_frozen_hashes_match_the_benchmark_freeze():
    # The benchmark's correctness check reads the same hashes from
    # perfbench/expected.json, its case ids `name` or `name.<setting>`: a
    # refreeze of one table alone fails here.
    cases = json.loads(EXPECTED.read_text(encoding="utf-8"))["cases"]
    names = {name for name, *_ in FROZEN} | {case.split(".")[0] for case in cases}
    for name in sorted(names):
        frozen = sorted(tuple(row[2:]) for row in FROZEN if row[0] == name)
        expected = sorted(
            (c["all_pass"], c["json_sha256"], c["tsv_sha256"])
            for case, c in cases.items()
            if case == name or case.startswith(name + ".")
        )
        assert frozen == expected, name

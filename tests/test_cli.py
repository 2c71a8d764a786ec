"""Command-line interface: outputs, exit codes, and determinism."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bettipowers import monomial_core, resolution_engine, spectra
from bettipowers.cli import main
from bettipowers.monomial_core import power, product
from bettipowers.resolution_engine import CoefficientField, betti_table

from _fixtures import FIXTURE_DIR, fixture_ideal


def _fixture(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.ideal")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_matches_library_csv(capsys):
    code, out, _ = _run(capsys, ["betti", _fixture("maximal2")])
    assert code == 0
    ideal = fixture_ideal("maximal2")
    assert out == betti_table(ideal).to_csv()


def test_betti_power_and_field_flags(capsys):
    code, out, _ = _run(capsys, ["betti", _fixture("msquare2"), "--power", "2", "--field", "2"])
    assert code == 0
    ideal = fixture_ideal("msquare2")
    expected = betti_table(power(ideal, 2), CoefficientField.parse("2")).to_csv()
    assert out == expected


def test_profile_json_shape_and_determinism(capsys):
    argv = ["profile", _fixture("purepowers2"), "--kmax", "6"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"ideal", "field", "kmax", "guard", "profile", "verdicts"}
    assert payload["kmax"] == 6
    assert payload["guard"] == 3
    assert payload["profile"]["status"] == "ok"
    assert payload["profile"]["multiplicities"] == [1, 1]
    statements = {s["id"]: s["status"] for s in payload["verdicts"]["statements"]}
    assert statements["euler-alternating-sum"] == "holds"
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out


def test_profile_reports_not_stabilized(capsys):
    # Tight window with a large guard: still exit 0, verdicts withheld.
    code, out, _ = _run(
        capsys, ["profile", _fixture("edges5"), "--kmax", "6", "--guard", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["status"] == "not-stabilized"
    assert payload["verdicts"] is None


def test_roots_regular_sequence_stdout(capsys):
    code, out, _ = _run(capsys, ["roots", "--regular-sequence", "3", "--kmax", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,root_index,re,im,trajectory_id,is_escape"
    assert len(lines) == 1 + 3 * 8


# SHA-256 of the roots CSV on stdout, recorded with the interpolated closed
# form and the sweep that fancy-indexed its projections; any change to the
# closed form or the sweep must keep these bits.  edges5, maximal3 and
# purepowers3 share one profile, so one locus.
LOCUS_DIGESTS = {
    ("--regular-sequence", "20", "--kmax", "40"):
        "c4088d178741d0ea36602b35507068b40c6d97b1c5d51c7af03e19a15b19c79e",
    # Odd reduced degree: 3 real slots and 8 conjugate pairs.
    ("--regular-sequence", "19", "--kmax", "20"):
        "cb2d4326a5a76a88cc6196daed84ce091400c1d83c48b2c16c358ba898b69614",
    (_fixture("edges5"), "--kmax", "12"):
        "b8c2ec5ced9f488d17abf20b9735b2dd6bffc4adf43db5a5d335add14a3f8154",
    (_fixture("maximal3"), "--kmax", "12"):
        "b8c2ec5ced9f488d17abf20b9735b2dd6bffc4adf43db5a5d335add14a3f8154",
    (_fixture("purepowers3"), "--kmax", "12"):
        "b8c2ec5ced9f488d17abf20b9735b2dd6bffc4adf43db5a5d335add14a3f8154",
    (_fixture("artinian4"), "--kmax", "12"):
        "2cb53179ccf753e8a8b6f43f75e3c26f0281c68e713cbe596f2a419d110c4751",
}


def _locus_id(args):
    # The fixture's name; a regular sequence other than n=20 adds its n.
    name = Path(args[0]).stem.lstrip("-")
    return f"{name}-{args[1]}" if name == "regular-sequence" and args[1] != "20" else name


@pytest.mark.parametrize("args", list(LOCUS_DIGESTS), ids=_locus_id)
def test_roots_locus_bytes_are_pinned(capsys, args):
    code, out, _ = _run(capsys, ["roots", *args])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LOCUS_DIGESTS[args]


def test_roots_match_benchmark_reference_bytes(capsys):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "roots-regseq20.csv"
    code, out, _ = _run(capsys, ["roots", "--regular-sequence", "20", "--kmax", "20"])
    assert code == 0
    assert out.encode() == reference.read_bytes()


def test_oracle_check_matches_benchmark_reference_bytes(capsys):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "oracle-rp2.json"
    code, out, _ = _run(capsys, ["oracle-check", _fixture("rp2"), "--fields", "q,2"])
    assert code == 0
    assert out.encode() == reference.read_bytes()


def test_oracle_check_over_three_fields_keeps_its_bytes(capsys):
    # Q, F_2 and F_3 on rp2: the F_3 kernel end to end, and Q ranks that the
    # mod-3 Betti numbers certify.  The digest was taken before either existed.
    code, out, _ = _run(capsys, ["oracle-check", _fixture("rp2"), "--fields", "q,2,3"])
    assert code == 0
    digest = "174d9ccc7e39d7b448942a761afd8ff64292ff5f4b8171adeadd3a597ce99b2d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_profile_matches_benchmark_reference_bytes(capsys):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "profile-mixed6.json"
    code, out, _ = _run(capsys, ["profile", _fixture("mixed6"), "--kmax", "8"])
    assert code == 0
    assert out.encode() == reference.read_bytes()


def test_roots_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "locus.csv"
    svg_path = tmp_path / "locus.svg"
    argv = [
        "roots",
        _fixture("maximal2"),
        "--kmax",
        "6",
        "--fit-kmax",
        "8",
        "--csv",
        str(csv_path),
        "--svg",
        str(svg_path),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out == ""
    first_csv = csv_path.read_text()
    first_svg = svg_path.read_text()
    assert first_csv.startswith("k,root_index,re,im,trajectory_id,is_escape")
    assert first_svg.startswith("<svg") and "polyline" in first_svg
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert csv_path.read_text() == first_csv
    assert svg_path.read_text() == first_svg


def test_roots_requires_exactly_one_source(capsys):
    code, _, err = _run(capsys, ["roots"])
    assert code == 1 and "exactly one" in err
    code, _, err = _run(
        capsys, ["roots", _fixture("maximal2"), "--regular-sequence", "3"]
    )
    assert code == 1 and "exactly one" in err


def test_roots_unstabilized_profile_is_an_error(capsys):
    code, _, err = _run(
        capsys,
        ["roots", _fixture("edges5"), "--fit-kmax", "6", "--guard", "4", "--kmax", "4"],
    )
    assert code == 2
    assert "did not stabilize" in err


def test_scan_jsonl_determinism(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    argv = [
        "scan",
        "--vars", "2",
        "--gens", "2",
        "--max-exp", "2",
        "--count", "5",
        "--seed", "7",
        "--out", str(out_path),
    ]
    code, _, err = _run(capsys, argv)
    assert code == 0
    assert "wrote 5 records" in err
    first = out_path.read_bytes()
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert [r["index"] for r in records if r["type"] == "record"] == list(range(5))
    assert all("timing_seconds" not in r for r in records)
    code, _, _ = _run(capsys, argv)
    assert code == 0
    assert out_path.read_bytes() == first


def test_scan_matches_benchmark_reference_bytes(capsys):
    # The benchmark's seed-1 reference was written by computing every record
    # afresh, so it also catches a scan that reuses the wrong record.
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "scan-sqfree3-seed1.jsonl"
    code, out, _ = _run(
        capsys,
        ["scan", "--vars", "3", "--gens", "4", "--max-exp", "1", "--count", "100", "--seed=1"],
    )
    assert code == 0
    assert out.encode() == reference.read_bytes()


def test_scan_timing_flag_adds_field(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = _run(
        capsys,
        ["scan", "--vars", "2", "--gens", "2", "--max-exp", "2", "--count", "2",
         "--seed", "7", "--timing", "--out", str(out_path)],
    )
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert all("timing_seconds" in r for r in records if r["type"] == "record")


def test_scan_count_zero_and_stdout_mode(capsys):
    code, out, _ = _run(
        capsys, ["scan", "--vars", "2", "--gens", "2", "--max-exp", "2",
                 "--count", "0", "--seed", "1"]
    )
    assert code == 0 and out == ""
    code, out, _ = _run(
        capsys, ["scan", "--vars", "2", "--gens", "1", "--max-exp", "1",
                 "--count", "1", "--seed", "1"]
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["type"] == "record" and record["seed"] == 1


def test_oracle_check_agreement(capsys):
    code, out, _ = _run(
        capsys, ["oracle-check", _fixture("msquare2"), "--kmax", "2", "--fields", "q,2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["engines_agree"] is True
    assert payload["findings"] == []
    rows = payload["results"]["QQ"] if "QQ" in payload["results"] else None
    assert rows is None or all(r["agree"] for r in rows)
    for per_field in payload["results"].values():
        assert all(r["agree"] for r in per_field)


def test_oracle_check_builds_each_power_once(capsys, monkeypatch):
    calls = []
    grids = []

    def counting_product(I, J):
        calls.append(1)
        return product(I, J)

    def counting_grid_table(space):
        grids.append(space.size)
        return grid_table(space)

    grid_table = resolution_engine._grid_table
    monkeypatch.setattr(monomial_core, "product", counting_product)
    monkeypatch.setattr(resolution_engine, "_grid_table", counting_grid_table)
    argv = ["oracle-check", _fixture("maximal2"), "--kmax", "4", "--fields", "q,2,3"]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["engines_agree"] is True
    assert len(calls) == 3  # I^2, I^3 and I^4, shared by the three fields
    assert len(grids) == 4  # one lattice per power, I to I^4, shared too


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    for argv in (
        ["betti", _fixture("maximal2"), "--field", "zz"],
        ["profile", _fixture("maximal2"), "--field", "4"],
        ["oracle-check", _fixture("maximal2"), "--fields", "q,x"],
        ["oracle-check", _fixture("maximal2"), "--fields", "q,q"],
        ["oracle-check", _fixture("maximal2"), "--fields", "q,0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert "prime" in capsys.readouterr().err
    code, out, err = _run(capsys, ["roots", "--regular-sequence", "1"])
    assert code == 1 and out == "" and "N >= 2" in err


def test_out_of_range_numbers_exit_one(capsys):
    for argv, message in (
        (["profile", _fixture("maximal2"), "--kmax", "0"], "--kmax: must be a positive integer"),
        (
            ["scan", "--vars", "3", "--gens", "4", "--max-exp", "1", "--count", "-1"],
            "--count: must be a non-negative integer",
        ),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_root_finding_failure_exits_two(capsys, monkeypatch):
    # The CLI has no iteration option; a one-sweep limit makes the locus fail.
    monkeypatch.setattr(spectra, "DEFAULT_MAX_ITER", 1)
    code, out, err = _run(capsys, ["roots", "--regular-sequence", "5", "--kmax", "3"])
    assert code == 2 and out == ""
    assert "error:" in err and "no convergence after 1 iterations" in err


def test_computation_errors_exit_two(capsys, tmp_path):
    code, _, err = _run(capsys, ["betti", str(tmp_path / "missing.ideal")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars: x\ngens: y\n")
    code, _, err = _run(capsys, ["betti", str(bad)])
    assert code == 2
    huge = tmp_path / "huge.ideal"
    huge.write_text("vars: x y; gens: x^9999999999999999999999, y\n")
    code, _, err = _run(capsys, ["betti", str(huge)])
    assert code == 2 and "error:" in err and "64-bit" in err
    # Vertex masks are int64: x65 and x66 would lose their bits.
    wide = tmp_path / "wide.ideal"
    wide.write_text(f"vars: {' '.join(f'x{i}' for i in range(1, 67))}; gens: x65, x66\n")
    code, _, err = _run(capsys, ["betti", str(wide)])
    assert code == 2 and "error:" in err and "63" in err
    code, _, err = _run(capsys, ["oracle-check", _fixture("rp2"), "--kmax", "2"])
    assert code == 2 and "Taylor oracle cap" in err


GUARD_DEFAULTS = """
import argparse
from bettipowers import asymptotics
asymptotics.DEFAULT_GUARD = 5
from bettipowers import cli, scan

parser = cli.build_parser()
subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
required = {"profile": ["x.ideal"], "scan": "--vars 1 --gens 1 --max-exp 1 --count 0".split()}
guards = {
    name: parser.parse_args([name, *required.get(name, [])]).guard
    for name, sub in subparsers.choices.items()
    if sub.get_default("guard") is not None
}
print(sorted(guards.items()), scan.ScanParameters(1, 1, 1, 0, 1).guard)
"""


def test_guard_defaults_read_the_fit_constant():
    # A fresh interpreter changes asymptotics.DEFAULT_GUARD before cli and
    # scan are imported: every subcommand's parsed --guard default and the
    # scan parameters' default follow it.
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", GUARD_DEFAULTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[('profile', 5), ('roots', 5), ('scan', 5)] 5\n"

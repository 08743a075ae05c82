import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from twotower.cli import main

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


def load_schema(name):
    return json.loads((DOCS / name).read_text())


def make_validator(name):
    schema = load_schema(name)
    registry = None
    try:
        from referencing import Registry, Resource

        registry = Registry().with_resources(
            (s["$id"], Resource.from_contents(s))
            for s in (
                load_schema("tower_report.schema.json"),
                load_schema("search_result.schema.json"),
                load_schema("explore_summary.schema.json"),
            )
        )
        return jsonschema.Draft202012Validator(schema, registry=registry)
    except ImportError:
        store = {
            s["$id"]: s
            for s in (
                load_schema("tower_report.schema.json"),
                load_schema("search_result.schema.json"),
                load_schema("explore_summary.schema.json"),
            )
        }
        resolver = jsonschema.RefResolver.from_schema(schema, store=store)
        return jsonschema.Draft202012Validator(schema, resolver=resolver)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_exit_codes(capsys):
    code, out, _ = run(capsys, "analyze", "--", "-25355")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "InfiniteProven"
    make_validator("tower_report.schema.json").validate(report)

    code, out, _ = run(capsys, "analyze", "--discs=-7,-3,-8,+29,+5")
    assert code == 10
    report = json.loads(out)
    assert report["verdict"] == "Open" and report["case"]["tag"] == "M49"
    make_validator("tower_report.schema.json").validate(report)

    code, _, err = run(capsys, "analyze", "0")
    assert code == 2 and "error" in err


def test_analyze_skips_out_of_bound_base_fields(capsys):
    # five base fields contain 100000037, so |D_F| > 1e8; the rest are tried
    code, out, _ = run(capsys, "analyze", "--discs=-3,+5,+13,+100000037")
    assert code == 10
    report = json.loads(out)
    make_validator("tower_report.schema.json").validate(report)
    skipped = [d for d in report["diagnostics"] if d["criterion"] == "skipped:bound"]
    assert len(skipped) == 5
    assert all(d["achieved"] > d["required"] == 10**8 for d in skipped)
    assert all("100000037" in d["detail"] for d in skipped)


def test_analyze_human(capsys):
    code, out, _ = run(capsys, "analyze", "--format", "human", "--", "-25355")
    assert code == 0
    assert "InfiniteProven" in out and "pos-pair-8-one-inert" in out


def test_analyze_rejects_real_field(capsys):
    code, _, err = run(capsys, "analyze", "145")
    assert code == 2 and "imaginary" in err


def test_classgroup(capsys):
    code, out, _ = run(capsys, "classgroup", "--", "-399")
    assert code == 0 and out.splitlines()[0] == "C2 x C8 (order 16)"
    code, out, _ = run(capsys, "classgroup", "145", "--narrow")
    assert code == 0 and out.splitlines()[0] == "C4 (order 4)"
    code, out, _ = run(capsys, "classgroup", "145", "--wide")
    assert code == 0 and out.splitlines()[0] == "C4 (order 4)"
    code, out, _ = run(capsys, "classgroup", "--", "-4")
    assert code == 0 and "trivial" in out


def test_search_complete_jsonl(capsys):
    # Spaces after the commas are accepted, as --discs accepts them.
    validator = make_validator("search_result.schema.json")
    for partial in (["--partial=-3,-11,_,-7,-31"], ["--partial", "-3, -11, _, -7, -31"]):
        code, out, _ = run(capsys, "search", "complete", "--case", "B", *partial, "--bound", "200")
        assert code == 0, partial
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines and lines[0]["discs"] == [-3, -11, -107, -7, -31]
        for line in lines:
            validator.validate(line)


def test_search_complete_rejects_count_below_one(capsys):
    for count in ("0", "-2"):
        code, out, err = run(
            capsys,
            "search",
            "complete",
            "--case",
            "B",
            "--partial=-3,-11,_,-7,-31",
            "--bound",
            "200",
            f"--count={count}",
        )
        assert code == 2 and out == "" and "count" in err


def test_search_base_fields_jsonl(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "base-fields",
        "--template",
        "real-pos-pair",
        "--min-cl2",
        "8",
        "--bound",
        "3000",
        "--rank-max",
        "0",
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    discs = [line["discriminant"] for line in lines]
    assert 904 in discs and 2605 in discs
    validator = make_validator("search_result.schema.json")
    for line in lines:
        validator.validate(line)


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "real-pair", "5", "29", "--bound", "2000")
    assert code == 0 and "0 violations" in out
    code, out, _ = run(capsys, "verify", "imag-triple", "7", "19", "3", "--bound", "1000")
    assert code == 0 and "0 violations" in out
    code, _, err = run(capsys, "verify", "real-pair", "5", "5", "--bound", "100")
    assert code == 2


def test_explore_cli(capsys):
    code, out, _ = run(capsys, "explore", "--discs=+5,+29", "--bound", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("# summary\t")
    summary = json.loads(lines[-1].split("\t", 1)[1])
    make_validator("explore_summary.schema.json").validate(summary)
    data_rows = [l for l in lines if not l.startswith("#")]
    assert all(len(l.split("\t")) == 5 for l in data_rows)
    from twotower.arith import primes_up_to

    assert len(data_rows) == sum(1 for p in primes_up_to(200) if 145 % p)
    code, out, _ = run(capsys, "explore", "--discs=+5,+29", "--bound", "200", "--summary-only")
    assert code == 0 and out.startswith("# summary\t")


def test_catalog_cli(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "case M49" in out and "case A" in out and "status resolved" in out


def test_max_disc_variable(capsys, monkeypatch):
    # TWO_TOWER_MAX_DISC is the one setting of the bound, read on each check.
    monkeypatch.setenv("TWO_TOWER_MAX_DISC", "100")
    code, _, err = run(capsys, "classgroup", "--", "-399")
    assert code == 2 and "bound 100" in err
    # skipped:bound reports the bound in force, not the default
    monkeypatch.setenv("TWO_TOWER_MAX_DISC", "1000")
    code, out, _ = run(capsys, "analyze", "--discs=-3,+5,+13,+37")
    skipped = [d for d in json.loads(out)["diagnostics"] if d["criterion"] == "skipped:bound"]
    assert skipped and all(d["achieved"] > d["required"] == 1000 for d in skipped)
    monkeypatch.delenv("TWO_TOWER_MAX_DISC")
    assert run(capsys, "classgroup", "--", "-399")[0] == 0


def test_max_disc_variable_malformed(capsys, monkeypatch):
    monkeypatch.setenv("TWO_TOWER_MAX_DISC", "abc")
    code, _, err = run(capsys, "classgroup", "--", "-399")
    assert code == 2 and "TWO_TOWER_MAX_DISC='abc' is not an integer" in err
    for value in ("0", "-5"):
        monkeypatch.setenv("TWO_TOWER_MAX_DISC", value)
        code, out, err = run(capsys, "classgroup", "--", "-3")
        assert code == 2 and out == "", value
        assert f"TWO_TOWER_MAX_DISC='{value}' is not a positive integer" in err, value


def test_outputs_stable_under_rerun(capsys):
    _, out1, _ = run(capsys, "analyze", "--discs=-7,-3,-8,+29,+5")
    _, out2, _ = run(capsys, "analyze", "--discs=-7,-3,-8,+29,+5")
    assert out1 == out2

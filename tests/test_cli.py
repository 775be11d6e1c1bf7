from __future__ import annotations

import argparse
import ast
import json
import re
from pathlib import Path

import pytest

import tp53scan.cli
import tp53scan.mutcall
import tp53scan.refstore
from tp53scan.cli import build_parser, main, run
from tp53scan.datafiles import (
    bundled_db_path,
    bundled_homolog_path,
    bundled_refstore_path,
    bundled_subject_path,
)
from tp53scan.mutcall import call_mutations
from tp53scan.mutdb import FilterQuery, query
from tp53scan.pipeline import (
    VerdictKind,
    render_calls,
    render_matches,
    report_from_dict,
)

from support import rescore_alignment
from tp53scan.alignment import DNA_SCHEME, align_global

SUBJECT = str(bundled_subject_path())
HOMOLOG = str(bundled_homolog_path())
REFERENCE = str(bundled_refstore_path() / "tp53_ncbi_cds.fasta")


def fasta_file(tmp_path, name: str, *records: tuple[str, str]) -> str:
    text = "".join(f">{rid}\n{residues}\n" for rid, residues in records)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_gc_text_output(capsys):
    assert run(["gc", HOMOLOG]) == 0
    out = capsys.readouterr().out
    assert "record: tp53_homolog_export" in out
    assert "gc_percent: 54.85" in out
    assert "Accept" in out


def test_gc_json_output(capsys):
    assert run(["gc", HOMOLOG, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rec = payload["records"][0]
    assert rec["decision"] == "Accept"
    assert abs(rec["gc_percent"] - 54.85) < 0.01


def test_gc_names_a_fasta_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.fasta"
    path.write_bytes(b">ok\nACGT\n>caf\xe9 header\nACGT\n")
    assert run(["gc", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"InputEncodingError: {path}:3: byte 0xe9 is not UTF-8" in err


def test_gc_extremes_and_threshold_flag(tmp_path, capsys):
    path = fasta_file(tmp_path, "x.fasta", ("allgc", "GCGCGC"), ("noat", "ATATAT"))
    assert run(["gc", path, "--threshold", "99.5"]) == 0
    out = capsys.readouterr().out
    assert "gc_percent: 100.00" in out
    assert "gc_percent: 0.00" in out
    assert out.count("Accept") == 1 and out.count("Reject") == 1


def test_gc_rejects_illegal_residue(tmp_path, capsys):
    path = fasta_file(tmp_path, "bad.fasta", ("oops", "ACGU"))
    assert run(["gc", path]) == 1
    assert "IllegalResidueError" in capsys.readouterr().err


def test_align_text(tmp_path, capsys):
    path = fasta_file(tmp_path, "pair.fasta", ("a", "ACGTACGT"), ("b", "ACGTTCGT"))
    assert run(["align", path]) == 0
    out = capsys.readouterr().out
    assert "score: 13" in out
    assert "identity: 87.50%" in out
    assert "Match x4, Mismatch x1, Match x3" in out
    assert "||||.|||" in out


def test_align_json_rescoreable(tmp_path, capsys):
    path = fasta_file(tmp_path, "pair.fasta", ("a", "ACGTACGT"), ("b", "ACGT"))
    assert run(["align", path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["score"] == rescore_alignment(
        payload["aligned_a"], payload["aligned_b"], DNA_SCHEME
    )
    assert payload["aligned_a"].replace("-", "") == "ACGTACGT"
    assert payload["aligned_b"].replace("-", "") == "ACGT"


def test_align_scheme_flags(tmp_path, capsys):
    path = fasta_file(tmp_path, "pair.fasta", ("a", "ACGTACGT"), ("b", "ACGTTCGT"))
    assert run(["align", path, "--match", "3"]) == 0
    assert "score: 20" in capsys.readouterr().out


def test_align_invalid_scheme_flags(tmp_path, capsys):
    path = fasta_file(tmp_path, "pair.fasta", ("a", "ACGT"), ("b", "ACGT"))
    assert run(["align", path, "--match", "1", "--mismatch", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_align_protein_alphabet(tmp_path, capsys):
    path = fasta_file(tmp_path, "pair.fasta", ("a", "MKV"), ("b", "MRV"))
    assert run(["align", path, "--alphabet", "protein"]) == 0
    assert "score: 6" in capsys.readouterr().out  # 4 - 2 + 4


def test_align_record_count_enforced(tmp_path, capsys):
    one = fasta_file(tmp_path, "one.fasta", ("a", "ACGT"))
    three = fasta_file(
        tmp_path, "three.fasta", ("a", "ACGT"), ("b", "ACGT"), ("c", "ACGT")
    )
    assert run(["align", one]) == 1
    assert "RecordCountError" in capsys.readouterr().err
    assert run(["align", three]) == 1
    assert "RecordCountError" in capsys.readouterr().err


def test_translate_text(tmp_path, capsys):
    path = fasta_file(tmp_path, "cds.fasta", ("s", "ATGCGGTAA"))
    assert run(["translate", path]) == 0
    assert capsys.readouterr().out == ">s\nMR*\n"


def test_translate_frame_flag(tmp_path, capsys):
    path = fasta_file(tmp_path, "cds.fasta", ("s", "AATGTAA"))
    assert run(["translate", path, "--frame", "1"]) == 0
    assert ">s\nM*\n" in capsys.readouterr().out


def test_translate_json(tmp_path, capsys):
    path = fasta_file(tmp_path, "cds.fasta", ("s", "ATGCGGTAA"))
    assert run(["translate", path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"][0]["protein"] == "MR*"


def test_call_worked_example(capsys):
    assert run(["call", REFERENCE, SUBJECT]) == 0
    out = capsys.readouterr().out
    assert "dna_identical: false" in out
    assert "has_indel: false" in out
    assert "  248 CGG>TGG R>W Missense" in out


def test_call_json(capsys):
    assert run(["call", REFERENCE, SUBJECT, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["calls"] == [
        {
            "codon": 248,
            "ref_codon": "CGG",
            "alt_codon": "TGG",
            "ref_aa": "R",
            "alt_aa": "W",
            "kind": "Missense",
        }
    ]


def test_query_conjunction_narrows(capsys):
    assert run(["query", "--where", "codon=248", "--output", "json"]) == 0
    broad = json.loads(capsys.readouterr().out)
    assert (
        run(
            [
                "query",
                "--where",
                "codon=248",
                "--where",
                "mut_codon=TGG",
                "--output",
                "json",
            ]
        )
        == 0
    )
    narrow = json.loads(capsys.readouterr().out)
    broad_ids = {r["record_id"] for r in broad["matches"]}
    narrow_ids = {r["record_id"] for r in narrow["matches"]}
    assert narrow_ids and narrow_ids <= broad_ids
    assert len(narrow["distinct_tumor_types"]) >= 3


def test_query_clause_order_irrelevant(capsys):
    assert run(["query", "--where", "codon=248", "--where", "origin=somatic",
                "--output", "json"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert run(["query", "--where", "origin=somatic", "--where", "codon=248",
                "--output", "json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a == b


def test_query_text_lists_matches(capsys):
    assert run(["query", "--where", "codon=248", "--where", "mut_codon=TGG"]) == 0
    out = capsys.readouterr().out
    assert "matches: 5" in out
    assert "R023" in out
    assert "tumor types:" in out


def test_query_usage_errors(capsys):
    assert run(["query", "--where", "codon"]) == 2
    capsys.readouterr()
    assert run(["query", "--where", "codon=abc"]) == 2
    capsys.readouterr()
    assert run(["query", "--where", "codon=1", "--where", "codon=2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_query_unknown_field(capsys):
    assert run(["query", "--where", "chromosome=17"]) == 1
    assert "UnknownFieldError" in capsys.readouterr().err


def test_query_names_a_db_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "db.tsv"
    path.write_bytes(
        b"codon\twt_codon\tmut_codon\twt_aa\tmut_aa\ttumor_type\n"
        b"248\tCGG\tTGG\tR\tW\tBreast\n"
        b"249\tAGG\tAGT\tR\tS\tH\xe9patocellular\n"
    )
    assert run(["query", "--db", str(path)]) == 1
    assert f"InputEncodingError: {path}:3: byte 0xe9" in capsys.readouterr().err


def test_query_missing_db(tmp_path, capsys):
    assert run(["query", "--db", str(tmp_path / "nope.tsv")]) == 1
    assert "FileNotFoundError" in capsys.readouterr().err


def test_predict_text(capsys):
    assert run(["predict", SUBJECT]) == 0
    out = capsys.readouterr().out
    assert "verdict: PreCancerMatch" in out
    assert "  248 CGG>TGG R>W Missense" in out
    assert "gate trace:" in out


def test_call_query_and_predict_share_one_text_form_per_result(
    db, reference_cds, subject_r248w, capsys
):
    # a call set and a match list each have one renderer in the library;
    # the CLI adds only call's two header lines around them
    calls = call_mutations(align_global(reference_cds, subject_r248w, DNA_SCHEME))
    assert run(["call", REFERENCE, SUBJECT]) == 0
    header = ["reference: tp53_cds_ncbi", "subject: subject_r248w"]
    assert capsys.readouterr().out == "\n".join(header + render_calls(calls)) + "\n"

    where = ["codon=248", "mut_codon=TGG"]
    matches = query(db, FilterQuery.from_strings(where))
    assert run(["query", "--where", where[0], "--where", where[1]]) == 0
    assert capsys.readouterr().out == "\n".join(render_matches(matches)) + "\n"

    assert run(["predict", SUBJECT]) == 0
    out = capsys.readouterr().out
    for block in (render_calls(calls), render_matches(matches)):
        assert "\n" + "\n".join(block) + "\n" in out


def test_reference_as_its_own_subject_reads_identical_with_no_match(capsys):
    assert run(["call", REFERENCE, REFERENCE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["dna_identical: true", "has_indel: false", "mutations: none"]
    assert run(["predict", REFERENCE]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: NoRisk" in lines
    assert "dna_identical: true" in lines
    assert "database matches: 0" in lines
    assert not any(line.startswith("tumor types:") for line in lines)


def test_readme_quick_start_output_is_the_predict_text(capsys):
    # every line of the README's example output, but those eliding with
    # "...", is a line of the real output, in the same order
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    shown = re.findall(r"```\n(.*?)```", section, re.DOTALL)[1].splitlines()
    assert run(["predict", SUBJECT]) == 0
    out = iter(capsys.readouterr().out.splitlines())
    missing = [line for line in shown if "..." not in line and line not in out]
    assert shown and missing == []


def test_predict_json_round_trips(capsys):
    assert run(["predict", SUBJECT, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = report_from_dict(payload)
    assert report.verdict.kind is VerdictKind.PRE_CANCER_MATCH
    assert report.subject_id == "subject_r248w"


def test_predict_needs_single_record(tmp_path, capsys):
    path = fasta_file(tmp_path, "two.fasta", ("a", "ATGAAA"), ("b", "ATGCCC"))
    assert run(["predict", path]) == 1
    assert "RecordCountError" in capsys.readouterr().err


def test_predict_blank_manifest_source_is_a_data_error(tmp_path, capsys):
    (tmp_path / "ref.fasta").write_bytes(Path(REFERENCE).read_bytes())
    (tmp_path / "manifest.tsv").write_text(
        "file\tgene\tsource\tpriority\nref.fasta\tTP53\t\t1\n", encoding="utf-8"
    )
    assert run(["predict", SUBJECT, "--refstore", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "ManifestError" in err and "manifest.tsv:2: source must be non-empty" in err


def test_predict_names_a_manifest_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "ref.fasta").write_bytes(Path(REFERENCE).read_bytes())
    manifest = tmp_path / "manifest.tsv"
    manifest.write_bytes(b"file\tgene\tsource\tpriority\nref.fasta\tTP53\tncbi-\xe9\t1\n")
    assert run(["predict", SUBJECT, "--refstore", str(tmp_path)]) == 1
    assert f"InputEncodingError: {manifest}:2: byte 0xe9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["predict", SUBJECT, "--gap-open", "0"], ["call", REFERENCE, SUBJECT, "--match", "3"]],
    ids=["predict", "call"],
)
def test_ranking_and_calling_take_no_scheme_flags(argv, capsys):
    assert run(argv) == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_predict_unknown_gene(capsys):
    assert run(["predict", SUBJECT, "--gene", "BRCA1"]) == 1
    assert "GeneNotFoundError" in capsys.readouterr().err


def test_predict_threshold_validated(capsys):
    assert run(["predict", SUBJECT, "--threshold", "150"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "gc"])
def test_bad_threshold_is_a_usage_error_before_any_file_is_read(tmp_path, command, capsys):
    missing = str(tmp_path / "missing.fa")
    assert run([command, missing, "--threshold", "150"]) == 2
    err = capsys.readouterr().err
    assert "threshold must be within [0, 100], got 150.0" in err
    assert "FileNotFoundError" not in err


def test_predict_rejects_the_removed_cap_flag(capsys):
    assert run(["predict", SUBJECT, "--prefix-cap", "10"]) == 2
    assert "unrecognized arguments: --prefix-cap" in capsys.readouterr().err


def test_predict_threshold_checked_before_any_alignment(monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no alignment expected")

    monkeypatch.setattr(tp53scan.refstore, "align_global", counted)
    monkeypatch.setattr(tp53scan.mutcall, "align_global", counted)
    assert run(["predict", SUBJECT, "--threshold", "150"]) == 2
    assert "threshold must be within [0, 100], got 150.0" in capsys.readouterr().err
    assert calls == []


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    capsys.readouterr()
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["tp53scan", "gc", HOMOLOG])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert "gc_percent" in capsys.readouterr().out


def test_gc_usage_errors_exit_2(capsys):
    assert run(["gc", HOMOLOG, "--threshold", "-1"]) == 2
    assert "threshold must be within [0, 100]" in capsys.readouterr().err
    assert run(["gc", HOMOLOG, "--output", "yaml"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_imports_no_private_names():
    """The CLI stays a thin adapter: it imports only public package names."""
    tree = ast.parse(Path(tp53scan.cli.__file__).read_text(encoding="utf-8"))
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "tp53scan"
        ):
            imported += (node.module or "").split(".")
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tp53scan":
                    imported += alias.name.split(".")
    assert [name for name in imported if name.startswith("_")] == []


def _readme_synopsis() -> dict[str, set[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    options: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("tp53scan "):
            command = line.split()[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def test_cli_surface_matches_readme_synopsis():
    """Every subcommand's options are exactly those its README synopsis
    lists, plus --output and --help, which the README gives once for all
    subcommands."""
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    documented = {name: opts | {"--output"} for name, opts in _readme_synopsis().items()}
    assert parsed == documented


def test_bundled_paths_exist():
    assert bundled_db_path().is_file()
    assert bundled_refstore_path().is_dir()
    assert bundled_subject_path().is_file()
    assert bundled_homolog_path().is_file()

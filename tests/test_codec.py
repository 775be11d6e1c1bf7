from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing
from enum import Enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tp53scan.alignment import DNA_SCHEME, AlignmentResult, align_global
from tp53scan.codec import from_dict, to_dict
from tp53scan.composition import CompositionReport, GateDecision
from tp53scan.errors import ReportFormatError
from tp53scan.mutcall import CodonMutation
from tp53scan.mutdb import AnnotationResult, MutationRecord
from tp53scan.pipeline import (
    GateAttempt,
    PredictionReport,
    Verdict,
    predict,
    report_from_dict,
    report_to_dict,
)
from tp53scan.seqio import PROTEIN_RESIDUES

from support import dna

# Keys and JSON types of the bundled-subject report at every level, taken
# from the hand-written serializer the codec replaced (generated_at aside).
# A list stands for the one tree all of its items share.
BUNDLED_REPORT_TREE = {
    "report_version": "int",
    "subject_id": "str",
    "tool_version": "str",
    "verdict": {
        "kind": "str",
        "reference": {
            "gene": "str",
            "source": "str",
            "sequence_id": "str",
            "length": "int",
            "priority": "int",
        },
        "gc": {
            "counts": {"A": "int", "C": "int", "G": "int", "T": "int", "N": "int"},
            "gc_percent": "float",
            "at_percent": "float",
            "length": "int",
        },
        "gate_trace": [{"source": "str", "gc_percent": "float", "decision": "str"}],
        "mutations": {
            "dna_identical": "bool",
            "has_indel": "bool",
            "calls": [
                {
                    "codon": "int",
                    "ref_codon": "str",
                    "alt_codon": "str",
                    "ref_aa": "str",
                    "alt_aa": "str",
                    "kind": "str",
                }
            ],
        },
        "annotations": {
            "matches": [
                {
                    "record_id": "str",
                    "codon": "int",
                    "wt_codon": "str",
                    "mut_codon": "str",
                    "wt_aa": "str",
                    "mut_aa": "str",
                    "mutation_event": "str",
                    "tumor_type": "str",
                    "extra": {"cell_line": "str", "origin": "str"},
                }
            ],
            "distinct_tumor_types": ["str"],
        },
    },
}

# free-form maps: their keys are data, not schema
MAP_FIELDS = {"counts", "extra"}

WRONG_VALUES = ("248", 248, 2.5, True, None, [], {})

# values of the right JSON type that break the rule of the field they sit in
BAD_VALUES = {
    "ref_codon": "xyz",
    "alt_codon": "xyz",
    "wt_codon": "xyz",
    "mut_codon": "xyz",
    "wt_aa": "hello",
    "mut_aa": "hello",
}


def key_tree(node):
    if isinstance(node, dict):
        return {k: key_tree(v) for k, v in node.items()}
    if isinstance(node, list):
        trees = [key_tree(item) for item in node]
        assert all(t == trees[0] for t in trees), "list items differ in shape"
        return trees[:1]
    return type(node).__name__


def walk(node, path=()):
    """Every (path, value) below ``node``; list items are addressed by index."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from walk(value, path + (key,))


def edited(payload, path, value=None, delete=False):
    out = copy.deepcopy(payload)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def derived_keys(tp, node, path=()):
    """(path, declared type) of every derived key in a payload of type ``tp``."""
    if node is None:
        return
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            key = f.metadata.get("wire", f.name)
            if f.init:
                yield from derived_keys(hints[f.name], node[key], path + (key,))
            else:
                yield path + (key,), hints[f.name]
    elif typing.get_origin(tp) in (types.UnionType, typing.Union):
        (inner,) = (a for a in typing.get_args(tp) if a is not type(None))
        yield from derived_keys(inner, node, path)
    elif typing.get_origin(tp) is tuple:
        for i, item in enumerate(node):
            yield from derived_keys(typing.get_args(tp)[0], item, path + (i,))


def wrong_content(tp, value):
    """A value of the JSON type ``value`` has, but not ``value`` itself."""
    if isinstance(tp, type) and issubclass(tp, Enum):
        return next(m.value for m in tp if m.value != value)
    if tp is str:
        return "Q" if value != "Q" else "A"
    if tp in (int, float):
        return value + 1
    return [*value, "Zebra"]


def wrong_values_for(value):
    kind = type(value)
    return [
        w for w in WRONG_VALUES
        if not (type(w) is kind or (kind is float and type(w) is int))
    ]


@pytest.fixture(scope="module")
def bundled_payload(store, db, subject_r248w):
    return json.loads(json.dumps(report_to_dict(predict(store, db, subject_r248w, "TP53"))))


def test_wire_format_pinned(bundled_payload):
    payload = dict(bundled_payload)
    del payload["generated_at"]
    assert key_tree(payload) == BUNDLED_REPORT_TREE


def test_malformed_payloads_raise_report_format_error(bundled_payload):
    cases = []
    for path, value in walk(bundled_payload):
        in_map = len(path) > 1 and path[-2] in MAP_FIELDS
        if isinstance(path[-1], str) and not in_map:
            cases.append((path, "deleted", edited(bundled_payload, path, delete=True)))
        if not isinstance(value, (dict, list)):
            cases += [
                (path, wrong, edited(bundled_payload, path, wrong))
                for wrong in wrong_values_for(value)
            ]
        if path[-1] in BAD_VALUES and not in_map:
            bad = BAD_VALUES[path[-1]]
            cases.append((path, bad, edited(bundled_payload, path, bad)))
    derived = list(derived_keys(PredictionReport, bundled_payload))
    assert {path[-1] for path, _ in derived} == {
        "kind", "ref_aa", "alt_aa", "distinct_tumor_types",
        "gc_percent", "at_percent", "length",
    }
    for path, tp in derived:
        current = bundled_payload
        for key in path:
            current = current[key]
        wrong = wrong_content(tp, current)
        cases.append((path, wrong, edited(bundled_payload, path, wrong)))
    assert len(cases) > 500
    escaped = []
    for path, change, payload in cases:
        try:
            report_from_dict(payload)
        except ReportFormatError:
            continue
        except Exception as exc:  # a bare KeyError or TypeError is the defect
            escaped.append((path, change, type(exc).__name__))
        else:
            escaped.append((path, change, "accepted"))
    assert escaped == []


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("verdict", "kind"), "Bogus", "verdict.kind: 'Bogus' is not a VerdictKind"),
        (("verdict", "gate_trace", 0, "decision"), "Maybe", "GateDecision"),
        (("verdict", "mutations", "calls", 0, "kind"), "Silent", "inconsistent"),
        (("verdict", "mutations", "calls", 0, "codon"), 0, "codon number"),
        (
            ("verdict", "annotations", "distinct_tumor_types"),
            [],
            r"^verdict\.annotations\.distinct_tumor_types: \[\] is inconsistent",
        ),
        (("verdict", "mutations", "calls", 0, "codon"), "248", "expected int, got str"),
        (
            ("verdict", "annotations", "matches", 0, "wt_codon"),
            "xyz",
            r"annotations\.matches\[0\]: wt_codon must be a 3-letter DNA codon",
        ),
        (
            ("verdict", "annotations", "matches", 0, "wt_aa"),
            "hello",
            r"annotations\.matches\[0\]: wt_aa must be one amino-acid letter",
        ),
        (
            ("verdict", "annotations", "matches", 0, "record_id"),
            "",
            r"annotations\.matches\[0\]: empty record_id$",
        ),
        (
            ("verdict", "annotations", "matches", 0, "mut_aa"),
            "B",
            r"^verdict\.annotations\.matches\[0\]: mut_aa must be one amino-acid letter, got 'B'$",
        ),
    ],
)
def test_bad_values_name_their_path(bundled_payload, path, value, message):
    with pytest.raises(ReportFormatError, match=message):
        report_from_dict(edited(bundled_payload, path, value))


def test_missing_key_names_its_path(bundled_payload):
    with pytest.raises(ReportFormatError, match=r"^verdict\.gc: missing key$"):
        report_from_dict(edited(bundled_payload, ("verdict", "gc"), delete=True))


SILENT_248 = {
    "codon": 248, "ref_codon": "CGG", "alt_codon": "CGA",
    "ref_aa": "R", "alt_aa": "R", "kind": "Silent",
}
IDENTICAL = {"calls": [], "has_indel": False, "dna_identical": True}
KIND, MUTATIONS, GC = ("verdict", "kind"), ("verdict", "mutations"), ("verdict", "gc")
ANNOTATIONS, TRACE = ("verdict", "annotations"), ("verdict", "gate_trace")
CALL = MUTATIONS + ("calls", 0)
NEEDS_CHANGE = r"^verdict: annotations need a protein-level change"


@pytest.mark.parametrize(
    "edits, message",
    [
        ([(CALL + ("ref_aa",), "Q")], r"^verdict\.mutations\.calls\[0\]\.ref_aa: 'Q' "),
        (
            [(CALL + ("alt_aa",), "R"), (CALL + ("kind",), "Silent")],
            r"^verdict\.mutations\.calls\[0\]\.alt_aa: 'R' is inconsistent .* 'W'$",
        ),
        (
            [(GC + ("gc_percent",), 12.0), (TRACE + (0, "gc_percent"), 12.0)],
            r"^verdict\.gc\.gc_percent: 12\.0 is inconsistent",
        ),
        ([(GC + ("length",), 5)], r"^verdict\.gc\.length: 5 is inconsistent"),
        ([(MUTATIONS, IDENTICAL)], NEEDS_CHANGE),
        (
            [(KIND, "SilentOnly"), (MUTATIONS, IDENTICAL), (ANNOTATIONS, None)],
            r"^verdict\.kind: 'SilentOnly' is inconsistent .* 'NoRisk'$",
        ),
        ([(KIND, "NoRisk"), (MUTATIONS, IDENTICAL)], NEEDS_CHANGE),
        ([(KIND, "SilentOnly"), (CALL[:-1], [SILENT_248])], NEEDS_CHANGE),
        ([(CALL[:-1], [SILENT_248])], NEEDS_CHANGE),
    ],
    ids=[
        "ref_aa-Q", "R>R-silent", "both-gc-12", "gc-length-5",
        "precancer-identical", "silentonly-identical", "norisk-annotated",
        "silentonly-annotated", "precancer-silent-call",
    ],
)
def test_tampered_verdicts_name_their_path(bundled_payload, edits, message):
    payload = bundled_payload
    for path, value in edits:
        payload = edited(payload, path, value)
    with pytest.raises(ReportFormatError, match=message):
        report_from_dict(payload)


@pytest.mark.parametrize(
    "cls, derived",
    [
        (Verdict, {"kind"}),
        (CodonMutation, {"ref_aa", "alt_aa", "kind"}),
        (AnnotationResult, {"distinct_tumor_types"}),
        (CompositionReport, {"gc_percent", "at_percent", "length"}),
        (AlignmentResult, {"ops"}),
    ],
)
def test_derived_fields_are_not_constructor_arguments(cls, derived):
    assert {f.name for f in dataclasses.fields(cls) if not f.init} == derived


def test_floats_accept_ints():
    payload = {**to_dict(GateAttempt("a", 50.0, GateDecision.ACCEPT)), "gc_percent": 55}
    attempt = from_dict(GateAttempt, payload)
    assert attempt.gc_percent == 55.0 and type(attempt.gc_percent) is float


CODONS = st.text(alphabet="ACGT", min_size=3, max_size=3)
AMINO_ACIDS = st.sampled_from(sorted(PROTEIN_RESIDUES))


@st.composite
def codon_mutations(draw):
    ref = draw(CODONS)
    alt = draw(CODONS.filter(lambda c: c != ref))
    return CodonMutation(draw(st.integers(min_value=1)), ref, alt)


@st.composite
def mutation_records(draw):
    wt = draw(CODONS)
    return MutationRecord(
        record_id=draw(st.text(min_size=1)),
        codon_number=draw(st.integers(min_value=1)),
        wt_codon=wt,
        mut_codon=draw(CODONS.filter(lambda c: c != wt)),
        wt_aa=draw(AMINO_ACIDS),
        mut_aa=draw(AMINO_ACIDS),
        mutation_event=draw(st.text()),
        tumor_type=draw(st.text()),
        extra=draw(st.dictionaries(st.text(), st.text(), max_size=4)),
    )


gate_attempts = st.builds(
    GateAttempt,
    source=st.text(),
    gc_percent=st.floats(allow_nan=False, allow_infinity=False),
    decision=st.sampled_from(GateDecision),
)


compositions = st.builds(
    CompositionReport,
    counts=st.fixed_dictionaries(
        {base: st.integers(0, 10**6) for base in "ACGTN"}
    ).filter(lambda c: c["A"] + c["C"] + c["G"] + c["T"] > 0),
)

annotation_results = st.builds(
    AnnotationResult, st.lists(mutation_records(), max_size=4).map(tuple)
)

_COLUMNS = st.tuples(st.sampled_from("ACGT-"), st.sampled_from("ACGT-")).filter(
    lambda col: col != ("-", "-")
)
alignment_results = st.builds(
    lambda cols, score: AlignmentResult(
        "".join(a for a, _ in cols), "".join(b for _, b in cols), score
    ),
    st.lists(_COLUMNS, min_size=1, max_size=30),
    st.integers(),
)


@given(
    st.one_of(
        codon_mutations(),
        mutation_records(),
        gate_attempts,
        compositions,
        annotation_results,
        alignment_results,
    )
)
def test_round_trip_through_json(value):
    payload = json.loads(json.dumps(to_dict(value)))
    assert from_dict(type(value), payload) == value


def test_fixed_length_tuples_round_trip():
    result = align_global(dna("ACGTACGT", "a"), dna("ACGTTCGT", "b"), DNA_SCHEME)
    payload = to_dict(result)
    assert payload["ops"] == [["Match", 4], ["Mismatch", 1], ["Match", 3]]
    assert from_dict(type(result), json.loads(json.dumps(payload))) == result

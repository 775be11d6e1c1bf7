from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tp53scan.alignment import DNA_SCHEME, align_global
from tp53scan.codec import from_dict, to_dict
from tp53scan.composition import GateDecision
from tp53scan.errors import ReportFormatError
from tp53scan.mutcall import CodonMutation
from tp53scan.mutdb import MutationRecord
from tp53scan.pipeline import GateAttempt, predict, report_from_dict, report_to_dict

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
        (("verdict", "annotations", "distinct_tumor_types"), [], "sorted tumor-type"),
        (("verdict", "mutations", "calls", 0, "codon"), "248", "expected int, got str"),
    ],
)
def test_bad_values_name_their_path(bundled_payload, path, value, message):
    with pytest.raises(ReportFormatError, match=message):
        report_from_dict(edited(bundled_payload, path, value))


def test_missing_key_names_its_path(bundled_payload):
    with pytest.raises(ReportFormatError, match=r"^verdict\.gc: missing key$"):
        report_from_dict(edited(bundled_payload, ("verdict", "gc"), delete=True))


def test_floats_accept_ints(bundled_payload):
    payload = edited(bundled_payload, ("verdict", "gate_trace", 0, "gc_percent"), 55)
    attempt = report_from_dict(payload).verdict.gate_trace[0]
    assert attempt.gc_percent == 55.0 and type(attempt.gc_percent) is float


CODONS = st.text(alphabet="ACGT", min_size=3, max_size=3)


@st.composite
def codon_mutations(draw):
    ref = draw(CODONS)
    alt = draw(CODONS.filter(lambda c: c != ref))
    return CodonMutation.from_codons(draw(st.integers(min_value=1)), ref, alt)


@st.composite
def mutation_records(draw):
    wt = draw(CODONS)
    return MutationRecord(
        record_id=draw(st.text()),
        codon_number=draw(st.integers(min_value=1)),
        wt_codon=wt,
        mut_codon=draw(CODONS.filter(lambda c: c != wt)),
        wt_aa=draw(st.text(max_size=1)),
        mut_aa=draw(st.text(max_size=1)),
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


@given(st.one_of(codon_mutations(), mutation_records(), gate_attempts))
def test_round_trip_through_json(value):
    payload = json.loads(json.dumps(to_dict(value)))
    assert from_dict(type(value), payload) == value


def test_fixed_length_tuples_round_trip():
    result = align_global(dna("ACGTACGT", "a"), dna("ACGTTCGT", "b"), DNA_SCHEME)
    payload = to_dict(result)
    assert payload["ops"] == [["Match", 4], ["Mismatch", 1], ["Match", 3]]
    assert from_dict(type(result), json.loads(json.dumps(payload))) == result

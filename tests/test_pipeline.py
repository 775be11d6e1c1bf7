from __future__ import annotations

import json
import re
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tp53scan import mutcall, pipeline, refstore
from tp53scan.composition import GateDecision, composition, reference_gate
from tp53scan.errors import (
    AllAmbiguousError,
    AlphabetMismatchError,
    NoReferenceAcceptedError,
    NotInFrameError,
    ReportFormatError,
    TooShortError,
)
from tp53scan.mutcall import CodonMutation, MutationCallSet, MutationKind
from tp53scan.mutdb import AnnotationResult
from tp53scan.pipeline import (
    GateAttempt,
    PartialSubjectWarning,
    PipelineConfig,
    ReferenceDescriptor,
    Verdict,
    VerdictKind,
    predict,
    render_text,
    report_from_dict,
    report_to_dict,
)
from tp53scan.refstore import best_homolog
from tp53scan.seqio import Alphabet, Sequence
from tp53scan.translation import translate

from support import dna, exhaustive_ranking, low_gc_pair, small_stores, write_store

GC_RICH_REF = "ATGCTGCCC"  # M L P, GC 6/9, passes the default gate


def tiny_store(tmp_path, residues: str = GC_RICH_REF):
    return write_store(tmp_path / "store", [("TP53", "unit-src", 1, dna(residues, "ref"))])


def test_worked_example_verdict(store, db, subject_r248w):
    report = predict(store, db, subject_r248w, "TP53")
    v = report.verdict
    assert v.kind is VerdictKind.PRE_CANCER_MATCH
    assert len(v.mutations.mutations) == 1
    m = v.mutations.mutations[0]
    assert (m.codon_number, m.ref_codon, m.alt_codon) == (248, "CGG", "TGG")
    assert (m.ref_aa, m.alt_aa, m.kind) == ("R", "W", MutationKind.MISSENSE)
    assert not v.mutations.has_indel

    assert v.reference_used.source == "ncbi-export"
    assert [a.decision for a in v.gate_trace] == [GateDecision.ACCEPT]
    assert v.annotations is not None
    assert [r.record_id for r in v.annotations.matches] == [
        "R023", "R024", "R025", "R026", "R027",
    ]
    assert len(v.annotations.distinct_tumor_types) >= 3
    assert report.subject_id == "subject_r248w"


def test_identical_subject_is_no_risk(store, db, reference_cds):
    report = predict(store, db, reference_cds, "TP53")
    v = report.verdict
    assert v.kind is VerdictKind.NO_RISK
    assert v.mutations.dna_identical
    assert v.mutations.mutations == ()
    assert v.annotations is None


def test_silent_substitution_verdict(tmp_path, db):
    store = tiny_store(tmp_path)
    report = predict(store, db, dna("ATGTTGCCC", "subj"), "TP53")
    v = report.verdict
    assert v.kind is VerdictKind.SILENT_ONLY
    assert [m.kind for m in v.mutations.mutations] == [MutationKind.SILENT]
    assert v.annotations is None


def test_unmatched_missense_verdict(tmp_path, db):
    store = tiny_store(tmp_path)
    report = predict(store, db, dna("ATGGTGCCC", "subj"), "TP53")
    v = report.verdict
    assert v.kind is VerdictKind.UNKNOWN_CANCER
    assert [m.kind for m in v.mutations.mutations] == [MutationKind.MISSENSE]
    assert v.annotations is None


def test_gate_falls_back_to_next_candidate(tmp_path, db):
    low, raised = low_gc_pair()
    store = write_store(
        tmp_path / "store",
        [("TP53", "low-src", 1, low), ("TP53", "raised-src", 2, raised)],
    )
    report = predict(store, db, low, "TP53")
    v = report.verdict
    assert [(a.source, a.decision) for a in v.gate_trace] == [
        ("low-src", GateDecision.REJECT),
        ("raised-src", GateDecision.ACCEPT),
    ]
    assert v.reference_used.source == "raised-src"
    assert v.kind is VerdictKind.SILENT_ONLY


def test_no_reference_accepted(tmp_path, db):
    low, _ = low_gc_pair()
    store = write_store(tmp_path / "store", [("TP53", "low-src", 1, low)])
    with pytest.raises(NoReferenceAcceptedError) as exc:
        predict(store, db, low, "TP53")
    trace = exc.value.gate_trace
    assert [a.decision for a in trace] == [GateDecision.REJECT]
    assert "low-src" in str(exc.value)


def test_out_of_frame_subject_rejected(tmp_path, db):
    store = tiny_store(tmp_path)
    with pytest.raises(NotInFrameError):
        predict(store, db, dna("ATGCTGCCCA", "subj"), "TP53")


def test_partial_subject_truncated_with_warning(tmp_path, db):
    store = tiny_store(tmp_path)
    config = PipelineConfig(allow_partial=True)
    with pytest.warns(PartialSubjectWarning):
        report = predict(store, db, dna("ATGCTGCCCA", "subj"), "TP53", config)
    assert report.verdict.kind is VerdictKind.NO_RISK


def test_too_short_subject(tmp_path, db):
    store = tiny_store(tmp_path)
    with pytest.raises(TooShortError):
        predict(store, db, dna("AT", "subj"), "TP53")


def test_protein_subject_rejected(tmp_path, db):
    store = tiny_store(tmp_path)
    protein = Sequence(
        id="p", description="", residues="MLP", alphabet=Alphabet.PROTEIN
    )
    with pytest.raises(ValueError):
        predict(store, db, protein, "TP53")


@pytest.mark.parametrize("step", ["predict", "composition", "translate"])
def test_dna_steps_refuse_protein_by_name(tmp_path, db, step):
    protein = Sequence(id="p", description="", residues="MLP", alphabet=Alphabet.PROTEIN)
    run = {
        "predict": lambda: predict(tiny_store(tmp_path), db, protein, "TP53"),
        "composition": lambda: composition(protein),
        "translate": lambda: translate(protein),
    }[step]
    with pytest.raises(AlphabetMismatchError, match=rf"^{step} requires a DNA sequence"):
        run()


def test_gc_threshold_config_is_honored(tmp_path, db):
    store = tiny_store(tmp_path)
    strict = PipelineConfig(gc_threshold=90.0)
    with pytest.raises(NoReferenceAcceptedError):
        predict(store, db, dna(GC_RICH_REF, "subj"), "TP53", strict)


def test_config_shares_the_gate_threshold_check():
    report = composition(dna("ACGT"))
    for bad in (100.5, -0.1, float("nan")):
        with pytest.raises(ValueError) as gate_error:
            reference_gate(report, bad)
        with pytest.raises(ValueError) as config_error:
            PipelineConfig(gc_threshold=bad)
        assert str(config_error.value) == str(gate_error.value)


def _count_alignments(monkeypatch) -> list[str]:
    """Record which module each align_global call goes through."""
    calls: list[str] = []
    for module in (refstore, mutcall):
        original = module.align_global

        def counted(*args, _name=module.__name__, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, "align_global", counted)
    return calls


def test_each_candidate_is_aligned_once(monkeypatch, store, db, subject_r248w):
    calls = _count_alignments(monkeypatch)
    report = predict(store, db, subject_r248w, "TP53")
    assert calls == ["tp53scan.refstore"] * len(store.entries_for("TP53"))
    assert [m.codon_number for m in report.verdict.mutations.mutations] == [248]


def _count_compositions(monkeypatch) -> list[str]:
    gated: list[str] = []

    def counted(seq):
        gated.append(seq.id)
        return composition(seq)

    monkeypatch.setattr(pipeline, "composition", counted)
    return gated


def test_each_entry_of_the_gene_is_gated_once(monkeypatch, store, db, subject_r248w):
    gated = _count_compositions(monkeypatch)
    predict(store, db, subject_r248w, "TP53")
    assert sorted(gated) == sorted(e.sequence.id for e in store.entries_for("TP53"))


def test_rejected_leader_is_gated_once(monkeypatch, tmp_path, db):
    # low-src ranks first (it is the subject) and is rejected; raised-src
    # is accepted; the other gene's entry is never gated
    low, raised = low_gc_pair()
    store = write_store(
        tmp_path / "store",
        [
            ("TP53", "low-src", 1, low),
            ("BRCA1", "other-gene", 1, dna("GC" * 20, "other_gene")),
            ("TP53", "raised-src", 2, raised),
        ],
    )
    gated = _count_compositions(monkeypatch)
    report = predict(store, db, low, "TP53")
    assert [a.source for a in report.verdict.gate_trace] == ["low-src", "raised-src"]
    assert sorted(gated) == ["low_gc_entry", "raised_gc_entry"]


@pytest.mark.parametrize("all_n_priority", [1, 3])
@pytest.mark.parametrize("all_n_ranks", ["below", "above"])
def test_gate_error_raises_only_where_the_walk_reaches_it(
    tmp_path, db, all_n_ranks: str, all_n_priority: int
):
    # the gate raises AllAmbiguousError on an all-N entry; ranking takes
    # that as a refusal, and predict's walk raises it only when the entry
    # ranks above the accepted reference. Priority 1 gates the entry
    # before the accepted one is aligned, priority 3 after.
    subject = dna("ATGCTGCCCAAA", "subj")
    accepted = subject if all_n_ranks == "below" else dna("GC" * 20, "gc_rich")
    store = write_store(
        tmp_path / "store",
        [
            ("TP53", "all-n", all_n_priority, dna("N" * 12, "all_n")),
            ("TP53", "accepted", 2, accepted),
        ],
    )
    order = [c.entry.source for c in best_homolog(store, subject, "TP53")]
    if all_n_ranks == "below":
        assert order == ["accepted", "all-n"]
        report = predict(store, db, subject, "TP53")
        assert [a.source for a in report.verdict.gate_trace] == ["accepted"]
    else:
        assert order == ["all-n", "accepted"]
        with pytest.raises(AllAmbiguousError, match="'all_n'"):
            predict(store, db, subject, "TP53")


def _outcome(store, db, subject, config) -> tuple:
    """predict's report without its clock, or how it failed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            payload = report_to_dict(predict(store, db, subject, "TP53", config))
        except NoReferenceAcceptedError as exc:
            return "rejected", exc.gate_trace
        except AllAmbiguousError as exc:
            return "all-N", str(exc)
    payload.pop("generated_at")
    return "report", payload


@settings(max_examples=150, deadline=None)
@given(case=small_stores(), threshold=st.sampled_from([0.0, 38.0, 50.0, 75.0, 100.0]))
def test_gated_ranking_gives_the_exhaustive_ranking_outcome(db, case, threshold: float):
    subject, store = case
    config = PipelineConfig(gc_threshold=threshold)
    got = _outcome(store, db, subject, config)
    with mock.patch.object(pipeline, "best_homolog", exhaustive_ranking):
        want = _outcome(store, db, subject, config)
    assert got == want


def test_repeat_runs_agree(store, db, subject_r248w):
    first = report_to_dict(predict(store, db, subject_r248w, "TP53"))
    second = report_to_dict(predict(store, db, subject_r248w, "TP53"))
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second


def test_report_round_trip_through_json(store, db, subject_r248w):
    report = predict(store, db, subject_r248w, "TP53")
    payload = report_to_dict(report)
    rebuilt = report_from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == report
    assert report_to_dict(rebuilt) == payload
    # extras on database rows must survive the trip
    match = payload["verdict"]["annotations"]["matches"][0]
    assert match["extra"]["origin"] in {"somatic", "germline"}


def test_report_version_checked(store, db, subject_r248w):
    payload = report_to_dict(predict(store, db, subject_r248w, "TP53"))
    payload["report_version"] = 99
    with pytest.raises(ReportFormatError, match="report_version"):
        report_from_dict(payload)
    with pytest.raises(ReportFormatError, match="report_version"):
        report_from_dict([payload])


def test_rebuild_revalidates_verdict(store, db, subject_r248w):
    payload = report_to_dict(predict(store, db, subject_r248w, "TP53"))
    payload["verdict"]["kind"] = "NoRisk"
    with pytest.raises(
        ReportFormatError,
        match=r"^verdict\.kind: 'NoRisk' is inconsistent .* give 'PreCancerMatch'$",
    ):
        report_from_dict(payload)


def test_render_text_content(store, db, subject_r248w):
    report = predict(store, db, subject_r248w, "TP53")
    text = render_text(report)
    assert "subject: subject_r248w" in text
    assert "verdict: PreCancerMatch" in text
    assert "  248 CGG>TGG R>W Missense" in text
    assert "tumor types:" in text
    assert text.endswith("\n")


def test_tool_version_is_the_package_version():
    # pyproject.toml is read with a regex: Python 3.10 has no tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    found = re.findall(r'^version = "([^"]+)"$', pyproject.read_text(encoding="utf-8"), re.M)
    assert found == [pipeline.TOOL_VERSION]


def _descriptor() -> ReferenceDescriptor:
    return ReferenceDescriptor(
        gene="TP53", source="unit-src", sequence_id="ref", length=9, priority=1
    )


def _gc_report():
    return composition(dna(GC_RICH_REF))


def _accept_trace() -> tuple[GateAttempt, ...]:
    gc = _gc_report().gc_percent
    return (GateAttempt("unit-src", gc, GateDecision.ACCEPT),)


def _verdict(**overrides) -> Verdict:
    base = dict(
        mutations=MutationCallSet(mutations=(), has_indel=False, dna_identical=True),
        annotations=None,
        reference_used=_descriptor(),
        gc_report=_gc_report(),
        gate_trace=_accept_trace(),
    )
    base.update(overrides)
    return Verdict(**base)


def test_verdict_consistency_enforced(db):
    silent = CodonMutation(2, "CTG", "TTG")
    missense = CodonMutation(2, "CTG", "GTG")
    identical = MutationCallSet(mutations=(), has_indel=False, dna_identical=True)
    differs = MutationCallSet(mutations=(), has_indel=False, dna_identical=False)
    silent_calls = MutationCallSet(
        mutations=(silent,), has_indel=False, dna_identical=False
    )
    missense_calls = MutationCallSet(
        mutations=(missense,), has_indel=False, dna_identical=False
    )
    indel_only = MutationCallSet(mutations=(), has_indel=True, dna_identical=False)
    annotations = AnnotationResult(db.records[:1])

    # the kind is derived, so no caller can pass one that contradicts the calls
    with pytest.raises(TypeError):
        _verdict(kind=VerdictKind.NO_RISK)
    assert _verdict(mutations=identical).kind is VerdictKind.NO_RISK
    assert _verdict(mutations=differs).kind is VerdictKind.SILENT_ONLY
    assert _verdict(mutations=silent_calls).kind is VerdictKind.SILENT_ONLY
    assert _verdict(mutations=missense_calls).kind is VerdictKind.UNKNOWN_CANCER
    assert _verdict(mutations=indel_only).kind is VerdictKind.UNKNOWN_CANCER
    matched = _verdict(mutations=missense_calls, annotations=annotations)
    assert matched.kind is VerdictKind.PRE_CANCER_MATCH

    # annotations belong only to a protein-level change with a match
    for calls in (identical, differs, silent_calls):
        with pytest.raises(ValueError, match="annotations"):
            _verdict(mutations=calls, annotations=annotations)
    with pytest.raises(ValueError, match="at least one match"):
        _verdict(mutations=missense_calls, annotations=AnnotationResult(()))


def test_gate_trace_accept_names_the_reference_used():
    gc = _gc_report().gc_percent
    with pytest.raises(ValueError, match="reference used"):
        _verdict(gate_trace=(GateAttempt("other-src", gc, GateDecision.ACCEPT),))
    with pytest.raises(ValueError, match="reference used"):
        _verdict(gate_trace=(GateAttempt("unit-src", 12.0, GateDecision.ACCEPT),))
    # earlier Rejects name other candidates
    reject = GateAttempt("other-src", 10.0, GateDecision.REJECT)
    assert _verdict(gate_trace=(reject, *_accept_trace())).gate_trace[0] is reject


def test_gate_trace_shape_enforced():
    accept = GateAttempt(source="a", gc_percent=50.0, decision=GateDecision.ACCEPT)
    reject = GateAttempt(source="b", gc_percent=10.0, decision=GateDecision.REJECT)
    with pytest.raises(ValueError, match="gate trace"):
        _verdict(gate_trace=())
    with pytest.raises(ValueError, match="gate trace"):
        _verdict(gate_trace=(reject,))
    with pytest.raises(ValueError, match="gate trace"):
        _verdict(gate_trace=(accept, reject))
    with pytest.raises(ValueError, match="gate trace"):
        _verdict(gate_trace=(accept, accept))

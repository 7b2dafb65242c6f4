"""Unit tests for dictionary tagging, context attributes, and candidates."""

import json
from datetime import datetime

import numpy as np
import pytest

from devicesurv import synth
from devicesurv.corpus import RawNote, preprocess
from devicesurv.errors import ConfigError, InputFormatError
from devicesurv.extraction import (
    _MENTION_FIELDS,
    RELATION_TYPES,
    apply_context,
    extract_candidates,
    generate_candidates,
    load_dictionary,
    load_trigger_lexicon,
    make_candidate_id,
    read_candidates,
    tag_entities,
    write_candidates,
)
from devicesurv.lf_lib import benchmark_lfs, starter_lfs
from devicesurv.weaksup import apply_lfs


def _doc(text, when=datetime(2020, 1, 1)):
    return preprocess(RawNote("n1", "p1", when, "progress", text))


def _tagged(text, dictionaries, lexicon, when=datetime(2020, 1, 1)):
    doc = _doc(text, when)
    sent = doc.sentences[-1]
    mentions = tag_entities(sent, dictionaries)
    apply_context(sent, mentions, lexicon, doc.section_for(sent.char_start), doc.dates_in(sent))
    return doc, sent, mentions


class TestLoadDictionary:
    def test_case_insensitive_lookup(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("tenderness\ttenderness\tpain\n")
        d = load_dictionary(path)
        doc = _doc("Tenderness noted.")
        mentions = tag_entities(doc.sentences[0], [d])
        assert [m.surface for m in mentions] == ["Tenderness"]

    def test_complication_requires_subcategory(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("metallosis\tmetallosis\tcomplication\n")
        with pytest.raises(InputFormatError, match="subcategory"):
            load_dictionary(path)

    def test_complication_subcategory_loads(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("metallosis\tmetallosis\tcomplication\tparticle_disease\n")
        d = load_dictionary(path)
        entry = d.entries["metallosis"]
        assert entry.subcategory == "particle_disease"

    def test_conflicting_entity_type_aborts_with_lines(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("hip\thip\tanatomy\nhip\thip\timplant\n")
        with pytest.raises(InputFormatError) as exc:
            load_dictionary(path)
        assert exc.value.context["lines"] == [1, 2]


class TestTagEntities:
    def test_position_modifier_absorbed(self, dictionaries):
        doc = _doc("left hip tenderness on exam.")
        mentions = tag_entities(doc.sentences[0], dictionaries)
        by_type = {m.entity_type: m for m in mentions}
        assert by_type["anatomy"].surface == "left hip"
        assert by_type["pain"].surface == "tenderness"

    def test_implant_model_tagged(self, dictionaries):
        doc = _doc("Zimmer VerSys stem in place.")
        mentions = tag_entities(doc.sentences[0], dictionaries)
        assert any(
            m.entity_type == "implant" and m.surface == "Zimmer VerSys" for m in mentions
        )

    def test_no_terms_no_mentions(self, dictionaries):
        doc = _doc("totally unrelated words here.")
        assert tag_entities(doc.sentences[0], dictionaries) == []

    def test_longest_match_wins(self, dictionaries):
        doc = _doc("Acetabular cup polyethylene wear is present.")
        mentions = tag_entities(doc.sentences[0], dictionaries)
        surfaces = {m.surface for m in mentions}
        assert "Acetabular cup" in surfaces
        assert "polyethylene wear" in surfaces

    def test_same_type_mentions_do_not_overlap(self, dictionaries, synth_candidates):
        for cand in synth_candidates[:50]:
            mentions = tag_entities(cand.sentence, dictionaries)
            by_type = {}
            for m in mentions:
                by_type.setdefault(m.entity_type, []).append(m)
            for same in by_type.values():
                same.sort(key=lambda m: m.char_start)
                for a, b in zip(same, same[1:]):
                    assert a.char_end <= b.char_start

    def test_idempotent(self, dictionaries):
        doc = _doc("left hip tenderness on exam.")
        first = tag_entities(doc.sentences[0], dictionaries)
        second = tag_entities(doc.sentences[0], dictionaries)
        assert first == second


class TestApplyContext:
    def test_forward_negation(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged("no evidence of infection today.", dictionaries, trigger_lexicon)
        infection = next(m for m in mentions if m.canonical_id == "infection")
        assert "negated" in infection.attributes

    def test_scope_terminator_blocks(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "no drainage but infection is present.", dictionaries, trigger_lexicon
        )
        infection = next(m for m in mentions if m.canonical_id == "infection")
        assert "negated" not in infection.attributes

    def test_window_cap(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "no sign at one two three four five six seven infection.",
            dictionaries,
            trigger_lexicon,
        )
        infection = next(m for m in mentions if m.canonical_id == "infection")
        assert "negated" not in infection.attributes

    def test_historical_section_rule(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "PAST MEDICAL HISTORY:\ninfection of the hip.", dictionaries, trigger_lexicon
        )
        infection = next(m for m in mentions if m.canonical_id == "infection")
        assert "historical" in infection.attributes

    def test_past_date_rule(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "Wound infection on 1/1/2015 treated.", dictionaries, trigger_lexicon,
            when=datetime(2020, 1, 1),
        )
        infection = next(m for m in mentions if m.canonical_id == "wound_infection")
        assert "historical" in infection.attributes

    def test_recent_date_not_historical(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "Wound infection on 12/30/2019 treated.", dictionaries, trigger_lexicon,
            when=datetime(2020, 1, 1),
        )
        infection = next(m for m in mentions if m.canonical_id == "wound_infection")
        assert "historical" not in infection.attributes

    def test_backward_trigger(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged("infection resolved.", dictionaries, trigger_lexicon)
        infection = next(m for m in mentions if m.canonical_id == "infection")
        assert "negated" in infection.attributes

    def test_present_mention_keeps_no_attributes(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged(
            "60 yo male with infected R hip (MRSA) s/p previous hip replacement.",
            dictionaries,
            trigger_lexicon,
        )
        infected = next(m for m in mentions if m.canonical_id == "infection")
        assert "negated" not in infected.attributes
        assert "hypothetical" not in infected.attributes
        assert "historical" not in infected.attributes

    def test_attributes_only_grow_and_spans_unchanged(self, dictionaries, trigger_lexicon):
        doc = _doc("no evidence of infection today.")
        sent = doc.sentences[0]
        mentions = tag_entities(sent, dictionaries)
        spans_before = [(m.char_start, m.char_end) for m in mentions]
        mentions[0].attributes.add("historical")
        apply_context(sent, mentions, trigger_lexicon, None, [])
        assert [(m.char_start, m.char_end) for m in mentions] == spans_before
        assert "historical" in mentions[0].attributes


class TestCandidates:
    def test_cartesian_product_count(self, dictionaries, trigger_lexicon):
        doc = _doc("pain and aching in the hip and knee and groin today.")
        sent = doc.sentences[0]
        mentions = tag_entities(sent, dictionaries)
        n_pain = sum(1 for m in mentions if m.entity_type == "pain")
        n_anat = sum(1 for m in mentions if m.entity_type == "anatomy")
        assert (n_pain, n_anat) == (2, 3)
        cands = generate_candidates(sent, mentions, "pain-anatomy", "n1")
        assert len(cands) == 6

    def test_zero_arg_type_no_candidates(self, dictionaries):
        doc = _doc("pain without location words.")
        sent = doc.sentences[0]
        mentions = tag_entities(sent, doc and dictionaries)
        assert generate_candidates(sent, mentions, "pain-anatomy", "n1") == []

    def test_unknown_relation_type(self, dictionaries):
        doc = _doc("pain in the hip.")
        sent = doc.sentences[0]
        with pytest.raises(ConfigError):
            generate_candidates(sent, [], "pain-implant", "n1")

    def test_candidate_id_stable(self, dictionaries, trigger_lexicon):
        a = extract_candidates(_doc("pain in the hip."), dictionaries, trigger_lexicon)
        b = extract_candidates(_doc("pain in the hip."), dictionaries, trigger_lexicon)
        assert [c.candidate_id for c in a] == [c.candidate_id for c in b]
        assert all(len(c.candidate_id) == 16 for c in a)

    def test_reference_note_first_candidates(self, reference_doc, dictionaries, trigger_lexicon):
        cands = extract_candidates(
            reference_doc, dictionaries, trigger_lexicon,
            relation_types=("implant-complication",),
        )
        assert len(cands) == 2
        first, second = cands
        assert (first.arg1.surface, first.arg2.surface) == ("polyethylene wear", "Acetabular cup")
        assert first.section_header == "HISTORY OF PRESENT ILLNESS"
        assert (second.arg1.surface, second.arg2.surface) == ("infection", "Zimmer Biomet")
        assert second.section_header == "PAST MEDICAL HISTORY"
        assert "historical" in second.arg1.attributes

    def test_candidate_id_depends_on_relation_type(self, dictionaries):
        doc = _doc("pain in the hip.")
        sent = doc.sentences[0]
        mentions = tag_entities(sent, dictionaries)
        pain = next(m for m in mentions if m.entity_type == "pain")
        anat = next(m for m in mentions if m.entity_type == "anatomy")
        a = make_candidate_id("n1", "pain-anatomy", pain, anat)
        b = make_candidate_id("n1", "implant-complication", pain, anat)
        assert a != b


class TestRecallOracle:
    # synth keys gold by the spans it wrote, never by what the extractor finds,
    # so a slot term the dictionaries miss is a missing id here.
    @pytest.mark.parametrize("seed", range(4))
    def test_extraction_yields_exactly_the_gold_ids(self, extract_notes, seed):
        corpus = synth.gen_corpus(synth.SynthConfig(seed=seed))
        found = [c.candidate_id for c in extract_notes(corpus.notes)]
        assert found == list(corpus.gold_relations)
        written = " ".join(n.text for n in corpus.notes)
        for term in synth.DEFAULT_PAIN_SLOTS + synth.DEFAULT_ANATOMY_SLOTS:
            assert f" {term} " in written, term  # every slot term is exercised


class TestCandidateFile:
    def test_round_trip(self, synth_candidates, reference_doc, dictionaries, trigger_lexicon,
                        tmp_path):
        cands = synth_candidates + extract_candidates(
            reference_doc, dictionaries, trigger_lexicon, relation_types=RELATION_TYPES
        )
        path = tmp_path / "candidates.jsonl"
        write_candidates(cands, path)
        back = read_candidates(path)
        assert len(back) == len(cands)
        for a, b in zip(back, cands):
            assert a.sentence == b.sentence  # text, offsets and tokens
            for ma, mb in ((a.arg1, b.arg1), (a.arg2, b.arg2)):
                assert (ma.char_start, ma.char_end, ma.surface) == (
                    mb.char_start, mb.char_end, mb.surface)
                assert (ma.entity_type, ma.canonical_id, ma.subcategory) == (
                    mb.entity_type, mb.canonical_id, mb.subcategory)
                assert (ma.token_start, ma.token_end) == (mb.token_start, mb.token_end)
                assert ma.attributes == mb.attributes
                assert ma.sentence == mb.sentence
            assert (a.candidate_id, a.relation_type, a.note_id) == (
                b.candidate_id, b.relation_type, b.note_id)
            assert (a.section_header, a.date_bins) == (b.section_header, b.date_bins)
        assert back == cands
        assert any(c.arg1.attributes for c in cands) and any(c.date_bins for c in cands)

        for rtype, lfs in (
            ("pain-anatomy", starter_lfs("pain-anatomy")),
            ("pain-anatomy", benchmark_lfs()),
            ("implant-complication", starter_lfs("implant-complication")),
        ):
            orig = apply_lfs([c for c in cands if c.relation_type == rtype], lfs)
            read = apply_lfs([c for c in back if c.relation_type == rtype], lfs)
            assert read.candidate_ids == orig.candidate_ids
            assert np.array_equal(read.votes, orig.votes)
            assert read.lf_errors == orig.lf_errors

    def test_sentence_written_once(self, synth_candidates, tmp_path):
        cands = synth_candidates
        path = tmp_path / "candidates.jsonl"
        write_candidates(cands, path)
        refs = [json.loads(line)["sentence"] for line in path.read_text().splitlines()]
        written = [tuple(r) for r in refs if isinstance(r, list)]
        distinct = {(c.sentence.text, c.sentence.char_start, c.sentence.char_end)
                    for c in cands}
        assert len(written) == len(distinct) < len(cands)
        assert [written[r] if isinstance(r, int) else tuple(r) for r in refs] == [
            (c.sentence.text, c.sentence.char_start, c.sentence.char_end) for c in cands]

    def test_mention_written_as_array(self, synth_candidates, tmp_path):
        cands = synth_candidates[:5]
        path = tmp_path / "candidates.jsonl"
        write_candidates(cands, path)
        for line, c in zip(path.read_text().splitlines(), cands):
            rec = json.loads(line)
            for key, m in (("arg1", c.arg1), ("arg2", c.arg2)):
                assert rec[key] == [getattr(m, f) for f in _MENTION_FIELDS] + [
                    sorted(m.attributes)]

    @pytest.mark.parametrize("damage", ["missing_field", "extra_field", "bad_subcategory",
                                        "sentence_ahead"])
    def test_damaged_line_names_it(self, synth_candidates, tmp_path, damage):
        path = tmp_path / "candidates.jsonl"
        write_candidates(synth_candidates[:3], path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        if damage == "missing_field":
            del rec["arg2"][_MENTION_FIELDS.index("token_end")]
        elif damage == "extra_field":
            rec["arg2"].insert(0, 0)
        elif damage == "bad_subcategory":
            rec["arg1"][_MENTION_FIELDS.index("subcategory")] = "revision"
        else:  # a sentence index no earlier line defines
            rec["sentence"] = 2
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError, match="candidates.jsonl:2"):
            read_candidates(path)


class TestTriggerLexicon:
    def test_bad_category_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("no\tnegatory\tforward\n")
        with pytest.raises(InputFormatError):
            load_trigger_lexicon(path)

    def test_terminators_parsed(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("no\tnegation\tforward\tbut,however\n")
        lex = load_trigger_lexicon(path)
        assert lex.triggers[0].terminators == ("but", "however")

"""Unit tests for dictionary tagging, context attributes, and candidates."""

import gc
import hashlib
import json
import weakref
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devicesurv import extraction, synth
from devicesurv.corpus import RawNote, Sentence, preprocess, tokenize
from devicesurv.errors import ConfigError, InputFormatError
from devicesurv.extraction import (
    _MENTION_FIELDS,
    ATTR_HISTORICAL,
    CONTEXT_WINDOW,
    HISTORICAL_BIN_LEVEL,
    HISTORICAL_HEADERS,
    POSITION_MODIFIERS,
    RELATION_TYPES,
    TRIGGER_CATEGORIES,
    Dictionary,
    DictEntry,
    EntityMention,
    _norm_term,
    _truncate_backward,
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
        with pytest.raises(InputFormatError, match="lines 1 and 2") as exc:
            load_dictionary(path)
        assert exc.value.context == {"line": 2}


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

    def test_unknown_relation_type_without_mentions(self, dictionaries, trigger_lexicon):
        # Refused before the first sentence, not only where a sentence holds
        # a mention to pair.
        doc = _doc("Nothing to report today.")
        assert extract_candidates(doc, dictionaries, trigger_lexicon) == []
        with pytest.raises(ConfigError, match="pain-anatomyy"):
            extract_candidates(doc, dictionaries, trigger_lexicon, ("pain-anatomyy",))

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
        back = list(read_candidates(path))
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
            list(read_candidates(path))

    def test_damaged_line_stops_the_reader_after_the_lines_before_it(self, synth_candidates,
                                                                     tmp_path):
        path = tmp_path / "candidates.jsonl"
        write_candidates(synth_candidates[:6], path)
        lines = path.read_text().splitlines(keepends=True)
        k = 5
        lines[k - 1] = lines[k - 1][:20] + "\n"
        path.write_text("".join(lines))
        reader = read_candidates(path)
        assert [next(reader).candidate_id for _ in range(k - 1)] == [
            c.candidate_id for c in synth_candidates[:k - 1]]
        with pytest.raises(InputFormatError, match=f"candidates.jsonl:{k}"):
            next(reader)

    def test_reader_holds_no_sentence_behind_the_consumer(self, synth_candidates, tmp_path):
        # The reader keeps the sentence the current line cites and drops it at
        # the first line citing another: a consumer that keeps no candidate
        # keeps no sentence alive.
        path = tmp_path / "candidates.jsonl"
        write_candidates(synth_candidates, path)
        reader = read_candidates(path)
        first = next(reader)
        sentence = weakref.ref(first.sentence)
        span = (first.sentence.text, first.sentence.char_start, first.sentence.char_end)
        del first
        moved_on = False
        for c in reader:
            if (c.sentence.text, c.sentence.char_start, c.sentence.char_end) != span:
                moved_on = True
                break
            assert sentence() is c.sentence  # shared while lines cite it
        del c
        gc.collect()
        assert moved_on and sentence() is None


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


# --- the tagger before it was compiled, kept as the oracle ----------------------
# A verbatim copy of the per-sentence tagger that re-normalised every dictionary
# term and trigger phrase for every sentence. Only ``_oracle_truncate_backward``
# differs: the scope starts after a terminator's last hit, where the old loop
# added each hit's end to a start the previous hit had already advanced.


def _oracle_tag_entities(sentence, dictionaries):
    by_type: dict[str, dict[str, DictEntry]] = {}
    for d in dictionaries:
        for key, entry in d.entries.items():
            by_type.setdefault(entry.entity_type, {})[key] = entry
    toks = sentence.tokens
    norm = [t.text.lower() for t in toks]
    mentions: list[EntityMention] = []
    for etype, table in by_type.items():
        max_len = max((len(k.split()) for k in table), default=0)
        i = 0
        while i < len(toks):
            matched = None
            for length in range(min(max_len, len(toks) - i), 0, -1):
                key = " ".join(norm[i : i + length])
                entry = table.get(key)
                if entry is not None:
                    matched = (length, entry)
                    break
            if matched is None:
                i += 1
                continue
            length, entry = matched
            start_tok, end_tok = i, i + length
            if etype == "anatomy":
                while start_tok > 0 and norm[start_tok - 1] in POSITION_MODIFIERS:
                    start_tok -= 1
            cs, ce = toks[start_tok].start, toks[end_tok - 1].end
            mentions.append(
                EntityMention(
                    sentence=sentence,
                    char_start=cs,
                    char_end=ce,
                    surface=sentence.text[cs - sentence.char_start : ce - sentence.char_start],
                    entity_type=etype,
                    canonical_id=entry.canonical_id,
                    subcategory=entry.subcategory,
                    token_start=start_tok,
                    token_end=end_tok,
                )
            )
            i = end_tok
    mentions.sort(key=lambda m: (m.char_start, m.char_end, m.entity_type))
    return mentions


def _oracle_find_phrase(norm_tokens, phrase):
    words = _norm_term(phrase).split()
    hits = []
    for i in range(len(norm_tokens) - len(words) + 1):
        if norm_tokens[i : i + len(words)] == words:
            hits.append((i, i + len(words)))
    return hits


def _oracle_apply_context(sentence, mentions, lexicon, section=None, dates=None):
    norm = [t.text.lower() for t in sentence.tokens]

    for trig in lexicon.triggers:
        attr = TRIGGER_CATEGORIES[trig.category]
        for tstart, tend in _oracle_find_phrase(norm, trig.phrase):
            if trig.direction in ("forward", "bidirectional"):
                scope_end = min(len(norm), tend + CONTEXT_WINDOW)
                scope_end = _oracle_truncate_forward(norm, tend, scope_end, trig.terminators)
                for m in mentions:
                    if tend <= m.token_start < scope_end:
                        m.attributes.add(attr)
            if trig.direction in ("backward", "bidirectional"):
                scope_start = max(0, tstart - CONTEXT_WINDOW)
                scope_start = _oracle_truncate_backward(norm, scope_start, tstart,
                                                        trig.terminators)
                for m in mentions:
                    if scope_start <= m.token_end - 1 < tstart:
                        m.attributes.add(attr)

    if section is not None and section.canonical_header in HISTORICAL_HEADERS:
        for m in mentions:
            m.attributes.add(ATTR_HISTORICAL)

    for d in dates or []:
        if d.delta_bin.older_than_or_at(HISTORICAL_BIN_LEVEL):
            for m in mentions:
                m.attributes.add(ATTR_HISTORICAL)
            break
    return mentions


def _oracle_truncate_forward(norm, start, end, terminators):
    for term in terminators:
        for hs, _he in _oracle_find_phrase(norm[start:end], term):
            end = min(end, start + hs)
    return end


def _oracle_truncate_backward(norm, start, end, terminators):
    for term in terminators:
        hits = _oracle_find_phrase(norm[start:end], term)
        if hits:
            start += hits[-1][1]
    return start


def _sentence(text):
    return Sentence(text, 0, len(text), tokenize(text))


def _fields(mentions):
    return [(m.char_start, m.char_end, m.surface, m.entity_type, m.canonical_id, m.subcategory,
             m.token_start, m.token_end, sorted(m.attributes)) for m in mentions]


def _entry(cid, etype):
    return DictEntry(cid, etype, "revision" if etype == "complication" else None, 1)


# Re-maps default terms within and across types and adds longer overlapping
# terms, so the later-dictionary and longest-match rules are exercised.
_OVERLAY = Dictionary({
    "hip": _entry("hip_overlay", "anatomy"),
    "pain": _entry("pain_as_anatomy", "anatomy"),
    "hip pain": _entry("hip_pain", "pain"),
    "left hip joint": _entry("left_hip_joint", "anatomy"),
    "knee pain but": _entry("knee_pain_but", "pain"),
    "wear": _entry("wear", "complication"),
    "cup": _entry("cup", "implant"),
})

_FILLER = ("the", "patient", "reports", "today", "and", "with", "of", "in", "then", "now",
           ",", ".", ";", "(", ")", "-", "/")
# Drawn as often as the whole vocabulary, so that scopes often hold several
# terminators, triggers and mentions.
_DENSE = ("but", "however", "resolved", "absent", "no", "ruled out", "left", "hip", "pain",
          "knee", "wear", "cup")


class TestCompiledTaggerMatchesOracle:
    """The compiled tagger gives the oracle's mentions and attributes."""

    @pytest.fixture(scope="class")
    def vocabulary(self, dictionaries, trigger_lexicon):
        terms = sorted({k for d in [*dictionaries, _OVERLAY] for k in d.entries})
        triggers = sorted({t.phrase for t in trigger_lexicon.triggers})
        return (terms + triggers + sorted(POSITION_MODIFIERS) + list(_FILLER)
                + ["but", "however"])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_sentences(self, vocabulary, dictionaries, trigger_lexicon, data):
        word = st.one_of(st.sampled_from(vocabulary), st.sampled_from(_DENSE))
        words = data.draw(st.lists(word, min_size=1, max_size=30))
        cases = data.draw(st.lists(st.sampled_from([str.lower, str.upper, str.title,
                                                    str.swapcase]),
                                   min_size=len(words), max_size=len(words)))
        sent = _sentence(" ".join(case(w) for case, w in zip(cases, words)))
        for dicts in (dictionaries, [*dictionaries, _OVERLAY], [_OVERLAY, *dictionaries]):
            compiled, oracle = tag_entities(sent, dicts), _oracle_tag_entities(sent, dicts)
            assert _fields(compiled) == _fields(oracle)
            apply_context(sent, compiled, trigger_lexicon)
            _oracle_apply_context(sent, oracle, trigger_lexicon)
            assert _fields(compiled) == _fields(oracle)

    def _both(self, text, dicts):
        sent = _sentence(text)
        compiled = _fields(tag_entities(sent, dicts))
        assert compiled == _fields(_oracle_tag_entities(sent, dicts))
        return [(surface, etype, cid) for _, _, surface, etype, cid, *_ in compiled]

    def test_later_dictionary_wins_within_a_type(self):
        first = Dictionary({"hip": _entry("hip_a", "anatomy")})
        second = Dictionary({"hip": _entry("hip_b", "anatomy")})
        assert self._both("Hip", [first, second]) == [("Hip", "anatomy", "hip_b")]
        assert self._both("Hip", [second, first]) == [("Hip", "anatomy", "hip_a")]

    def test_one_term_in_two_types(self):
        dicts = [Dictionary({"hip": _entry("hip", "anatomy")}),
                 Dictionary({"hip": _entry("hip_implant", "implant")})]
        assert self._both("left hip", dicts) == [("left hip", "anatomy", "hip"),
                                                 ("hip", "implant", "hip_implant")]

    def test_overlapping_terms_of_different_lengths(self):
        dicts = [Dictionary({"hip joint": _entry("hip_joint", "anatomy"),
                             "a b c": _entry("abc", "anatomy"),
                             "joint pain": _entry("joint_pain", "pain")}),
                 Dictionary({"hip": _entry("hip", "anatomy"),
                             "a": _entry("a", "anatomy")})]
        assert self._both("hip joint pain , a b d", dicts) == [
            ("hip joint", "anatomy", "hip_joint"), ("joint pain", "pain", "joint_pain"),
            ("a", "anatomy", "a")]


class TestBackwardScope:
    def test_scope_starts_after_last_terminator_hit(self):
        norm = ("a", "but", "b", "but", "c", "resolved")
        assert _truncate_backward(norm, 0, 5, (("but",),)) == 4
        assert _oracle_truncate_backward(list(norm), 0, 5, ("but",)) == 4

    def test_second_terminator_keeps_negation(self, dictionaries, trigger_lexicon):
        _, _, mentions = _tagged("but fever but hip pain resolved.", dictionaries,
                                 trigger_lexicon)
        hip = next(m for m in mentions if m.surface == "hip")
        assert "negated" in hip.attributes


class TestCompiledOnce:
    def test_no_lexicon_work_per_sentence(self, monkeypatch, synth_corpus, dictionaries,
                                          trigger_lexicon):
        docs = [preprocess(note) for note in synth_corpus.notes[:40]]
        calls = []
        for name in ("tokenize", "_norm_term", "_norm_words"):
            fn = getattr(extraction, name)
            monkeypatch.setattr(extraction, name,
                                lambda *a, _fn=fn, **k: calls.append(a) or _fn(*a, **k))
        cands = [c for doc in docs for c in
                 extract_candidates(doc, dictionaries, trigger_lexicon)]
        assert cands and calls == []


class TestPinnedOutput:
    # sha1 of ``write_candidates`` over the synth corpus, recorded before the
    # tagger was compiled; a speed-up of extraction must keep these bytes.
    @pytest.mark.parametrize("seed,n,digest", [
        (0, 480, "88a0f00cdbac094b1688b7d9b7df98b478614a17"),
        (1, 480, "3e61c89e96aab25a05495540540c3b7d4bbbb0d2"),
    ])
    def test_candidate_file_digest(self, dictionaries, trigger_lexicon, tmp_path, seed, n,
                                   digest):
        corpus = synth.gen_corpus(synth.SynthConfig(seed=seed))
        cands = [c for note in corpus.notes
                 for c in extract_candidates(preprocess(note), dictionaries, trigger_lexicon)]
        path = tmp_path / "candidates.jsonl"
        write_candidates(cands, path)
        assert len(cands) == n
        assert hashlib.sha1(path.read_bytes()).hexdigest() == digest

import hashlib
import itertools
import random

import pytest

from idcalc import words
from idcalc.boxes import Box, domint, parse_box
from idcalc.polynomials import Orientation, apply_word, format_polyfun, parse_polyfun
from idcalc.relations import rand_polyfun, rand_word
from idcalc.words import (BACKWARD, FORWARD, D, Equal, Gen, GenKind, I, NotEqual, Q,
                          Signature, Unknown, Word, WordError, _normalize_steps,
                          normalize, p, parse_word, q, relation_step, signature_effect,
                          word_eq)
from oracles import (oriented_steps, relation_holds_on, relation_instances, relation_sides,
                     word_eq_per_call, word_eq_whole_words)


def w(text):
    return parse_word(text)


# ---------------------------------------------------------------------------
# relation steps


def test_step_integral_shuffle():
    assert relation_step(w("I1 I2"), 0, "intint", FORWARD) == w("I3 I1")


def test_step_substitution_expansion():
    assert relation_step(w("q2"), 0, "leftproj.i", FORWARD) == w("D3 I2")


def test_step_projection_absorption():
    assert relation_step(w("p1 p4"), 0, "coordint.i", BACKWARD) == w("p4")


@pytest.mark.parametrize("text, message", [
    ("D1 X3", "bad generator token 'X3' at offset 3 in word text"),
    ("  q1\tp", "bad generator index in 'p' at offset 5 in word text"),
    ("I1 D", "bad generator index in 'D' at offset 3 in word text"),
])
def test_parse_word_errors_name_the_token_offset(text, message):
    with pytest.raises(WordError) as exc:
        parse_word(text)
    assert str(exc.value) == message


def test_step_rejects_wrong_side_condition():
    with pytest.raises(WordError):
        relation_step(w("I2 I1"), 0, "intint", FORWARD)


def test_step_rejects_wrong_position():
    with pytest.raises(WordError):
        relation_step(w("D1 I1 I2"), 0, "intint", FORWARD)


@pytest.mark.parametrize("pos, direction", [(-1, FORWARD), (-3, FORWARD), (2, FORWARD),
                                            (3, FORWARD), (0, "sideways")])
def test_step_rejects_bad_position_or_direction(pos, direction):
    with pytest.raises(WordError):
        relation_step(w("I1 I2 D1"), pos, "intint", direction)


def test_relation_step_accepts_exactly_the_applicable_steps():
    """At every position from -1 to the word's length, relation_step
    accepts a rule and direction exactly when the window there is a whole
    source side of an instance of the rule: every word of length <= 2 over
    I/D/p/q/Q with indices 1-4."""
    sources = {}  # (rule_id, direction) -> the source sides of its instances
    for rule_id, i, j in relation_instances():
        lhs, rhs = relation_sides(rule_id, i, j)
        sources.setdefault((rule_id, FORWARD), set()).add(lhs.gens)
        sources.setdefault((rule_id, BACKWARD), set()).add(rhs.gens)
    gens = [Gen(kind, i) for kind in GenKind for i in range(1, 5)]
    for n in range(3):
        for word in map(Word, itertools.product(gens, repeat=n)):
            for pos, ((rule_id, d), sides) in itertools.product(range(-1, n + 1),
                                                                 sources.items()):
                try:
                    relation_step(word, pos, rule_id, d)
                    accepted = True
                except WordError:
                    accepted = False
                matched = pos >= 0 and any(word.gens[pos:pos + len(s)] == s for s in sides)
                assert accepted == matched, (str(word), pos, rule_id, d)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_lower_substitution():
    assert normalize(w("Q1")) == w("D1 I1")


def test_normalize_unit():
    assert normalize(Word()) == Word()


def test_normalize_is_constant_on_shuffle_sides():
    assert normalize(w("I1 I2")) == normalize(w("I3 I1"))


def test_normalize_upper_substitution_cli_example():
    assert str(normalize(w("q1"))) == "D2 I1"


def test_normalize_exhaustive_short_words():
    """Every word of length 0-3 with indices 1-5 (16,276 words) keeps its
    normal form: the digest below was computed at commit 53782b8, whose
    normalizer found steps through the raising relation_step.  Every
    normal form is irreducible under the oriented rules."""
    gens = [Gen(kind, i) for kind in GenKind for i in range(1, 6)]
    words = [Word(g) for n in range(4) for g in itertools.product(gens, repeat=n)]
    assert len(words) == 16_276
    nfs = [normalize(word) for word in words]
    digest = hashlib.sha256("\n".join(str(nf) for nf in nfs).encode()).hexdigest()
    assert digest == "364f7b6b35dd14d80b41bcaf86c026f7e08d0cf03d658525f62186ce66dd0f62"
    assert all(not oriented_steps(nf) for nf in set(nfs))


def _trace_words():
    """The words of length 0-2 with indices 1-5, then random words of
    lengths 8, 16, 32 (ten each) and 64 (two)."""
    gens = [Gen(kind, i) for kind in GenKind for i in range(1, 6)]
    out = [Word(g) for n in range(3) for g in itertools.product(gens, repeat=n)]
    rng = random.Random(8)
    for length, count in ((8, 10), (16, 10), (32, 10), (64, 2)):
        out += [rand_word(rng, length, 5) for _ in range(count)]
    return out


def test_normalize_step_trace_is_pinned():
    """The steps themselves, not only the normal forms, are pinned: the
    digest below was computed at commit 48e8ea0 by replaying
    oriented_steps(cur)[0] through relation_step, whose normalizer
    rescanned the whole word after every step."""
    trace_words = _trace_words()
    lines, n_steps = [], 0
    for word in trace_words:
        _, steps = _normalize_steps(word)
        n_steps += len(steps)
        lines.append(str(word) + ":" + ";".join(f"{pos},{rule},{d}" for pos, rule, d in steps))
    assert (len(trace_words), n_steps) == (683, 4318)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c28f114b6cefc9ce20b5cc92f708e8ab1345172661898fcdc99264fad903618e"


def test_normalize_steps_replay_the_oriented_strategy():
    """Each step is the first oriented step of the word before it, and
    replaying the steps through relation_step reaches the normal form."""
    for word in _trace_words():
        nf, steps = _normalize_steps(word)
        cur = word
        for step in steps:
            assert oriented_steps(cur)[0] == step, (word, cur)
            cur = relation_step(cur, *step)
        assert cur == nf == normalize(word)
        assert not oriented_steps(nf)


def test_normalize_steps_replay_on_short_and_projection_dense_words():
    """Every word of length 1-3 with indices 1-4 (8,420 words), then
    seeded words of length 0-14 rich in p1, where absorptions before any
    move and absorptions on a projection's arrival both occur: the
    expansions, absorptions and projection moves come in the strategy's
    order, and so do the steps after them."""
    gens = [Gen(kind, i) for kind in GenKind for i in range(1, 5)]
    trace_words = [Word(g) for n in range(1, 4) for g in itertools.product(gens, repeat=n)]
    assert len(trace_words) == 8_420
    rng = random.Random(39)
    letters = [p(1)] * 4 + [p(2), p(3), I(1), I(2), D(1), D(2), q(1), Q(1)]
    trace_words += [Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, 14))))
                    for _ in range(1500)]
    arrivals = 0
    for word in trace_words:
        nf, steps = _normalize_steps(word)
        cur = word
        for step in steps:
            assert oriented_steps(cur)[0] == step, (word, cur)
            cur = relation_step(cur, *step)
        assert cur == nf == normalize(word)
        assert not oriented_steps(nf)
        arrivals += any(a[1] in ("coordint.ii", "coordint.iii") and b[1] == "coordint.i"
                        for a, b in zip(steps, steps[1:]))
    assert arrivals > 500


def test_normalize_step_cap_counts_the_projection_moves(monkeypatch):
    """I1 I1 p2 p2 takes four projection moves and no other step."""
    monkeypatch.setattr(words, "_NORMALIZE_CAP", 4)
    moves = [(1, "coordint.ii", BACKWARD), (0, "coordint.ii", BACKWARD),
             (2, "coordint.ii", BACKWARD), (1, "coordint.ii", BACKWARD)]
    assert _normalize_steps(w("I1 I1 p2 p2")) == (w("p2 p2 I1 I1"), moves)
    monkeypatch.setattr(words, "_NORMALIZE_CAP", 3)
    with pytest.raises(WordError, match="step cap of 3"):
        normalize(w("I1 I1 p2 p2"))


_BIG = 2 ** 64


@pytest.mark.parametrize("word, nf", [
    # words built in process may pass MAX_INDEX, and steps shift indices past it
    (Word.of(I(1000), I(1001)), Word.of(I(1002), I(1000))),
    (Word.of(q(1000), I(1000)), Word.of(D(1001), I(1000), I(1000))),
    (Word.of(Q(999), p(1), p(1000)), Word.of(p(1000), D(999), I(999))),
    (Word.of(I(1), q(_BIG), D(_BIG + 1), I(_BIG)),
     Word.of(D(_BIG + 3), D(_BIG + 2), I(_BIG + 1), I(_BIG + 1), I(1))),
])
def test_normalize_at_large_indices(word, nf):
    """A packed letter holds any index: the steps at and past MAX_INDEX
    replay the oriented strategy and reach the normal form."""
    got, steps = _normalize_steps(word)
    assert got == nf == normalize(word)
    cur = word
    for step in steps:
        assert oriented_steps(cur)[0] == step, cur
        cur = relation_step(cur, *step)
    assert cur == nf
    assert not oriented_steps(nf)


def test_steps_at_large_indices():
    """Steps past MAX_INDEX rewrite the window, and the opposite direction
    at the same position takes each back."""
    word = Word.of(q(1000), I(1001), D(_BIG))
    shuffled = relation_step(word, 0, "leftproj.iii", FORWARD)
    assert shuffled == Word.of(I(1002), q(1000), D(_BIG))
    assert relation_step(shuffled, 0, "leftproj.iii", BACKWARD) == word
    moved = relation_step(word, 1, "derint.iii", BACKWARD)
    assert moved == Word.of(q(1000), D(_BIG + 1), I(1001))
    assert relation_step(moved, 1, "derint.iii", FORWARD) == word


@pytest.mark.parametrize("text, nf, steps", [
    # expansion (+1 letter) at the first and at the last position
    ("q1", "D2 I1", [(0, "leftproj.i", FORWARD)]),
    ("I2 q1", "I2 D2 I1", [(1, "leftproj.i", FORWARD)]),
    ("q1 I2", "D2 I3 I1", [(0, "leftproj.i", FORWARD), (1, "intint", FORWARD)]),
    ("D1 Q3", "D3 D1 I3", [(1, "rightproj.i", FORWARD), (0, "derint.i", FORWARD)]),
    # absorption (-1 letter) at the first and at the last position
    ("p1 p2", "p2", [(0, "coordint.i", BACKWARD)]),
    ("I1 p1 p3", "p3 I1", [(1, "coordint.i", BACKWARD), (0, "coordint.ii", BACKWARD)]),
    ("p2 p1 p3", "p2 p3", [(1, "coordint.i", BACKWARD)]),
    # a projection move that creates an absorption to its left
    ("p1 I1 p2", "p2 I1", [(1, "coordint.ii", BACKWARD), (0, "coordint.i", BACKWARD)]),
    # expansion then absorption behind it, shifting every later window
    ("Q1 p1 p2", "p2 D1 I1",
     [(0, "rightproj.i", FORWARD), (2, "coordint.i", BACKWARD),
      (1, "coordint.ii", BACKWARD), (0, "coordint.iii", BACKWARD)]),
    ("I1 q2 p1 p4", "p4 D4 I3 I1",
     [(1, "leftproj.i", FORWARD), (3, "coordint.i", BACKWARD),
      (2, "coordint.ii", BACKWARD), (1, "coordint.iii", BACKWARD),
      (0, "coordint.ii", BACKWARD), (1, "derint.iii", BACKWARD), (2, "intint", FORWARD)]),
])
def test_normalize_length_changing_steps(text, nf, steps):
    """Normal forms and steps as the rescanning normalizer of commit
    48e8ea0 computed them."""
    assert _normalize_steps(w(text)) == (w(nf), steps)


def test_each_class_has_at_most_one_redex_per_window():
    """The normalizer keeps one rewrite per class and window, so no two
    rules of a class may match one window: every one- and two-letter
    window with indices 1-7 is checked."""
    gens = [Gen(kind, i) for kind in GenKind for i in range(1, 8)]
    windows = [(g,) for g in gens] + list(itertools.product(gens, repeat=2))
    for window in windows:
        a, b = words._packed(Word(window))[:2]
        classes = [c for c, rules in enumerate(words._PRIORITY_CLASSES) for rule in rules
                   if words._ORIENTED[rule].bind((a, b), 0) is not None]
        assert len(classes) == len(set(classes)), window


def test_window_records_equal_a_direct_read():
    """Every cached record is the one engine matcher that binds its window
    directly, or None when none does.  At most one binds any window of
    I/D letters and the sentinel, and every window holding a p, q or Q
    letter reads None: indices 1-7, the sentinel's kind with indices 0-7.
    Records are tuples, since every call shares them."""
    engine = [(c, words._ORIENTED[rule]) for c in words._ENGINE_CLASSES
              for rule in words._PRIORITY_CLASSES[c]]

    def letters(*kinds):
        return [i << 3 | words._CODE[kind] for kind in kinds for i in range(1, 8)]

    moved = letters(GenKind.INT, GenKind.PART)
    others = letters(GenKind.PROJ, GenKind.SUB_HI, GenKind.SUB_LO)
    sentinels = [i << 3 | words._END for i in range(8)]
    for a, b in itertools.product(moved + others, moved + others + sentinels):
        record = words._read_window(a, b)
        if a in others or b in others:
            assert record is None, (a, b)
            continue
        direct = []
        for c, m in engine:
            binding = m.bind((a, b), 0)
            if binding is not None:
                dst = tuple(g.index << 3 | words._CODE[g.kind]
                            for g in words._emit(m.dst, binding))
                direct.append((c, (m.rule_id, m.direction), dst))
        assert len(direct) <= 1, (a, b)
        assert record == (direct[0] if direct else None), (a, b)
        if record is not None:
            assert type(record) is tuple and type(record[1]) is tuple and type(record[2]) is tuple


def test_window_table_stays_bounded():
    """More distinct windows than the table holds: the oldest records
    go, and every normal form is still the shuffle rule's."""
    table = words._read_window
    assert table.cache_info().maxsize == 4096
    table.cache_clear()
    for i, j in itertools.product(range(1, 71), repeat=2):
        nf = Word.of(I(j + 1), I(i)) if i < j else Word.of(I(i), I(j))
        assert normalize(Word.of(I(i), I(j))) == nf
    info = table.cache_info()
    assert info.misses > info.maxsize >= info.currsize


def test_normalize_again_reads_no_new_window():
    word = rand_word(random.Random(3), 32, 5)
    nf = normalize(word)
    misses = words._read_window.cache_info().misses
    assert normalize(word) == nf
    assert words._read_window.cache_info().misses == misses


def test_normalize_step_cap_is_a_word_error(monkeypatch):
    monkeypatch.setattr(words, "_NORMALIZE_CAP", 3)
    with pytest.raises(WordError, match="step cap"):
        normalize(w("I1 I2 I3 I4"))
    assert normalize(w("q1")) == w("D2 I1")


def test_normalize_step_cap_admits_a_word_that_needs_exactly_the_cap(monkeypatch):
    """The cap refuses a step past it, not the normal form reached at it."""
    monkeypatch.setattr(words, "_NORMALIZE_CAP", 1)
    assert words._normalize_steps(w("q1")) == (w("D2 I1"), [(0, "leftproj.i", "forward")])
    with pytest.raises(WordError, match="step cap of 1"):
        normalize(w("q1 q1"))


def test_normalize_idempotent_random():
    rng = random.Random(5)
    for _ in range(300):
        nf = normalize(rand_word(rng, 8, 4))
        assert normalize(nf) == nf


# ---------------------------------------------------------------------------
# word equality


def test_word_eq_substitution_expansion():
    assert isinstance(word_eq(w("q1"), w("D2 I1")), Equal)


def test_word_eq_reflexive():
    assert isinstance(word_eq(w("D1"), w("D1")), Equal)


def test_word_eq_distinguishes_endpoints():
    verdict = word_eq(w("D1 I1"), w("D2 I1"))
    assert isinstance(verdict, NotEqual)
    # the identity map already separates the two sides
    f = parse_polyfun("poly 1->1 on R : 1 x1")
    assert apply_word(w("D1 I1"), f) != apply_word(w("D2 I1"), f)


def test_word_eq_unknown_is_reachable_but_flagged():
    # identical smooth actions, no relation connects them: honest Unknown
    verdict = word_eq(w("p2 p3"), w("p2 p4"))
    assert isinstance(verdict, Unknown)


def _oracle_battery():
    """300 random pairs of words of lengths 1-4 with indices 1-3, each
    with a seed below 4, then pairs whose first refuting witness is the
    13th to the 20th of their seed, or past it (p2 p3 at seed 35)."""
    rng = random.Random(32)
    pairs = [(rand_word(rng, rng.randint(1, 4), 3), rand_word(rng, rng.randint(1, 4), 3),
              rng.randrange(4)) for _ in range(300)]
    late = [("D3", "D4", 75), ("D3", "D4", 158), ("D3", "D4", 314), ("p2", "p3", 96),
            ("p2", "p3", 35)]
    return pairs + [(w(a), w(b), seed) for a, b, seed in late]


def _verdict_text(v):
    return type(v).__name__ + (" " + format_polyfun(v.witness) if isinstance(v, NotEqual) else "")


@pytest.mark.parametrize("trials", [1, 12, 20])
def test_word_eq_draws_what_a_fresh_generator_draws(trials):
    words._kept_witnesses.cache_clear()
    for a, b, seed in _oracle_battery():
        assert word_eq(a, b, trials, seed) == word_eq_per_call(a, b, trials, seed), \
            (str(a), str(b), seed)


def test_word_eq_verdicts_are_pinned():
    """The verdicts and witnesses of the battery at 1, 12 and 20 trials:
    the digest below was computed while word_eq drew its witnesses from a
    fresh random.Random(seed) on every call."""
    lines = [f"{trials} {a} | {b} | {seed}: {_verdict_text(word_eq(a, b, trials, seed))}"
             for trials in (1, 12, 20) for a, b, seed in _oracle_battery()]
    assert len(lines) == 915
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "802d5806c083c041e30849be6e659897f210026dcd1c94318086ae26fd382937"


def test_word_eq_equals_the_whole_word_oracle():
    """Verdicts and witnesses equal those of both words applied whole to
    each witness, on every pair of the 111 words of length <= 2 with
    indices <= 2."""
    short = [Word(gens) for n in range(3) for gens in itertools.product(
        [Gen(kind, i) for kind in GenKind for i in (1, 2)], repeat=n)]
    assert len(short) == 111
    for a in short:
        for b in short:
            assert word_eq(a, b) == word_eq_whole_words(a, b), (str(a), str(b))


@pytest.mark.parametrize("a, b, verdict, suffix, heads", [
    ("p1 I3 D4 Q5", "p2 I3 D4 Q5", Unknown, "I3 D4 Q5", ["p1", "p2"]),
    ("p2 p3 I2", "p2 p4 I2", Unknown, "I2", ["p2 p3", "p2 p4"]),
    ("D2 I1", "I1", NotEqual, "I1", ["D2", "1"]),
    ("I1", "D1 I1", NotEqual, "I1", ["1", "D1"]),
    ("1", "D1 I1", NotEqual, "1", ["1", "D1 I1"]),
    ("D1 I1", "D2 I2", NotEqual, "1", ["D1 I1", "D2 I2"]),
    ("I1 D1", "I1 D1", Equal, "I1 D1", ["1", "1"]),
])
def test_word_eq_applies_a_common_suffix_once(monkeypatch, a, b, verdict, suffix, heads):
    """Per witness: the common suffix once, then each word's prefix on the
    result; identical words act on no witness."""
    calls = []
    act = words.apply_word
    monkeypatch.setattr(words, "apply_word", lambda u, f: calls.append(str(u)) or act(u, f))
    out = word_eq(w(a), w(b))
    assert isinstance(out, verdict)
    assert out == word_eq_whole_words(w(a), w(b))
    if verdict is NotEqual:  # the witnesses up to the refuting one
        witnesses = words._kept_witnesses(0)[0].index(out.witness) + 1
    else:
        witnesses = 12 if verdict is Unknown else 0
    assert calls == [suffix, *heads] * witnesses


def _count_draws(monkeypatch) -> list:
    """Count the oracle's witness draws, from an empty witness store."""
    draws = []
    draw = words._random_polyfun
    monkeypatch.setattr(words, "_random_polyfun", lambda rng: draws.append(1) or draw(rng))
    words._kept_witnesses.cache_clear()
    return draws


def test_word_eq_draws_a_seeds_witnesses_once(monkeypatch):
    draws = _count_draws(monkeypatch)
    for _ in range(5):
        assert isinstance(word_eq(w("p2 p3"), w("p2 p4"), seed=7), Unknown)
        assert isinstance(word_eq(w("D1 I1"), w("D2 I1"), seed=7), NotEqual)
    assert len(draws) == 12


def test_witness_store_is_bounded_whatever_the_trials(monkeypatch):
    """Trials past the kept witnesses are drawn afresh on every call, and
    the store holds 12 witnesses for each of at most 16 seeds."""
    draws = _count_draws(monkeypatch)
    for seed in range(40):
        assert isinstance(word_eq(w("p2 p3"), w("p2 p4"), trials=30, seed=seed), Unknown)
    assert len(draws) == 40 * 30
    info = words._kept_witnesses.cache_info()
    assert info.currsize <= info.maxsize == 16
    assert len(words._kept_witnesses(39)[0]) == 12
    assert isinstance(word_eq(w("D1 I1"), w("D2 I1"), trials=10**30, seed=39), NotEqual)
    assert len(draws) == 40 * 30


# ---------------------------------------------------------------------------
# signatures


def test_signature_integral_extends_domain():
    sig = Signature(parse_box("(0,1)"), 2)
    out = signature_effect(w("I1"), sig)
    assert out == Signature(domint(parse_box("(0,1)"), 1), 2)


def test_signature_projection_collapses_codomain():
    sig = Signature(parse_box("(0,1)"), 5)
    assert signature_effect(w("p3"), sig) == Signature(parse_box("(0,1)"), 1)
    zero = Signature(parse_box("(0,1)"), 0)
    assert signature_effect(w("p3"), zero) == zero


def test_signature_unit():
    sig = Signature(Box.full(2), 3)
    assert signature_effect(Word(), sig) == sig


def test_signature_invariant_under_every_relation():
    base = Signature(Box.cube(0, 1, 4), 2)
    for rule_id, i, j in relation_instances():
        lhs, rhs = relation_sides(rule_id, i, j)
        assert signature_effect(lhs, base) == signature_effect(rhs, base), \
            (rule_id, i, j)


# ---------------------------------------------------------------------------
# semantic soundness of the whole table


def test_every_relation_instance_acts_identically():
    """Two witnesses per instance, sized so that no generator acts
    trivially: a variable for every index and every domain extension, a
    component for every projection, and degree above the derivative count.
    A witness on which the left side acts as zero proves nothing, so each
    is redrawn until the left side moves it."""
    rng = random.Random(9)
    extends = (GenKind.INT, GenKind.SUB_HI, GenKind.SUB_LO)
    for rule_id, i, j in relation_instances():
        sides = relation_sides(rule_id, i, j)
        gens = sides[0].gens + sides[1].gens
        arity = max(g.index for g in gens) + max(
            sum(g.kind in extends for g in side.gens) for side in sides)
        cod = max((g.index for g in gens if g.kind is GenKind.PROJ), default=1)
        deg = max(3, 1 + max(sum(g.kind is GenKind.PART for g in side.gens)
                             for side in sides))
        for _ in range(2):
            draws = (rand_polyfun(rng, Box.full(arity), cod, deg) for _ in range(50))
            f = next((f for f in draws
                      if not all(p.is_zero for p in apply_word(sides[0], f).components)),
                     None)
            assert f is not None, ("left side is zero on 50 draws", rule_id, i, j)
            assert relation_holds_on(rule_id, i, j, f), (rule_id, i, j)


def test_substitution_relations_fail_under_swapped_orientation():
    f = parse_polyfun("poly 1->1 on R : 1 x1")
    assert relation_holds_on("leftproj.i", 1, None, f, Orientation.UPPER)
    assert relation_holds_on("rightproj.i", 1, None, f, Orientation.UPPER)
    assert not relation_holds_on("leftproj.i", 1, None, f, Orientation.LOWER)
    assert not relation_holds_on("rightproj.i", 1, None, f, Orientation.LOWER)


# ---------------------------------------------------------------------------
# confluence (schedule independence)


def test_two_random_schedules_reach_one_normal_form():
    rng = random.Random(17)
    for _ in range(150):
        word = rand_word(rng, 8, 4)
        nf = normalize(word)
        for _ in range(2):
            cur = word
            for _ in range(1000):
                steps = oriented_steps(cur)
                if not steps:
                    break
                cur = relation_step(cur, *rng.choice(steps))
            assert normalize(cur) == nf


def test_applicable_steps_are_wellformed():
    """relation_step accepts exactly these steps on q1 I2 D1 p3, among
    every rule and direction at every position, and the opposite direction
    at the same position takes each back."""
    word = w("q1 I2 D1 p3")
    opposite = {FORWARD: BACKWARD, BACKWARD: FORWARD}
    accepted = []
    for pos, rule_id, direction in itertools.product(range(4), words.RELATIONS, opposite):
        try:
            out = relation_step(word, pos, rule_id, direction)
        except WordError:
            continue
        accepted.append((pos, rule_id, direction))
        assert relation_step(out, pos, rule_id, opposite[direction]) == word
    assert accepted == [(0, "leftproj.i", FORWARD), (0, "leftproj.iii", FORWARD),
                        (1, "derint.ii", BACKWARD), (2, "coordint.iii", BACKWARD),
                        (3, "coordint.i", FORWARD)]


def test_submonoid_predicates():
    assert w("I1 p2 q1 Q3").is_integral()
    assert not w("I1 D2").is_integral()
    assert Word().is_integral()

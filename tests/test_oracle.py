import random

from symfa import (
    Atom,
    IntervalAtom,
    Sfa,
    TRUE,
    Transition,
    interval_binding,
    membership,
    propositional_binding,
)
from symfa.oracle import (
    concretize,
    default_alphabet,
    mn_class_count,
    oracle_empty,
    oracle_equal,
    representatives,
    separating_word,
    short_words,
)
from genlib import rand_neat_prop_sfa, rand_sfa


def ia(lo, hi):
    return Atom(IntervalAtom(lo, hi))


def test_concretize_two_state_membership(two_state):
    dfa = concretize(two_state, alphabet=(50, 150, 199, 250))
    assert dfa.accepts([50])
    assert dfa.accepts([150, 50, 199])
    assert not dfa.accepts([50, 250])
    assert not dfa.accepts([])


def test_alphabets_without_endpoints():
    a = Sfa(interval_binding(), ("q",), "q", {"q"}, (Transition("q", TRUE, "q"),))
    assert default_alphabet(a) == (-2, -1, 0, 1, 2)
    assert representatives(a) == (0,)


def test_representatives_cover_every_segment(two_state):
    reps = representatives(two_state)
    assert reps == (99, 100, 101, 200)
    assert 100 in reps and 200 in reps


def test_propositional_alphabet_is_all_valuations():
    a = rand_neat_prop_sfa(random.Random(1), k=2)
    assert default_alphabet(a) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_oracle_empty_and_universal():
    dead = Sfa(interval_binding(), ("q",), "q", set(), (Transition("q", ia(0, 9), "q"),))
    assert oracle_empty(dead)
    top = Sfa(interval_binding(), ("q",), "q", {"q"}, (Transition("q", TRUE, "q"),))
    assert not oracle_empty(top)
    for w in short_words(default_alphabet(top), 2):
        assert concretize(top).accepts(w)


def test_separating_word_finds_shortest(two_state):
    assert separating_word(two_state, two_state) is None
    empty_ok = Sfa(two_state.binding, ("s",), "s", {"s"}, (Transition("s", ia(0, 150), "s"),))
    assert separating_word(two_state, empty_ok) == []
    w = separating_word(empty_ok, two_state, mode="subset")
    assert w == []
    back = separating_word(two_state, empty_ok, mode="subset")
    assert len(back) == 1
    assert membership(two_state, back) and not membership(empty_ok, back)


def test_mn_class_count_examples(two_state):
    assert mn_class_count(concretize(two_state)) == 2
    top = Sfa(interval_binding(), ("q",), "q", {"q"}, (Transition("q", TRUE, "q"),))
    assert mn_class_count(concretize(top)) == 1


def test_representatives_agree_with_dense_window():
    rng = random.Random(127)
    for _ in range(40):
        a = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        b = rand_sfa(rng, interval_binding(), n_max=3, m_max=3, pred_size=3)
        dense = oracle_equal(a, b, default_alphabet(a, b))
        sparse = oracle_equal(a, b, representatives(a, b))
        assert dense == sparse


def test_short_words_enumerates_all_lengths():
    words = list(short_words((0, 1), 2))
    assert words == [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]]

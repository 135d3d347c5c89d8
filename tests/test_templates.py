"""Word templates: constructors and structure tests."""
from __future__ import annotations

from helpers import random_word

from verba.templates import (
    GAMMA3_FAMILY,
    beta_word,
    commutator_product_decomposition,
    commutator_product_word,
    fresh_commutator_split,
    gamma_index,
    gamma_word,
    grope_word,
    template_from_word,
)
from verba.words import EMPTY, commutator, gen


def test_family_shapes():
    assert gamma_word(1).body == gen(1)
    assert gamma_word(2).body == commutator(gen(1), gen(2))
    assert gamma_word(3).body == commutator(gen(1), commutator(gen(2), gen(3)))
    assert beta_word(1).body == commutator(gen(1), gen(2))
    assert beta_word(2).body == commutator(
        commutator(gen(1), gen(2)), commutator(gen(3), gen(4))
    )
    assert len(gamma_word(4).variables) == 4
    assert len(beta_word(3).variables) == 8
    assert len(commutator_product_word(3).variables) == 6
    assert len(grope_word(2).variables) == 5
    assert GAMMA3_FAMILY.body is None


def test_gamma_index_is_structural():
    for n in range(1, 7):
        assert gamma_index(gamma_word(n)) == n
    assert gamma_index(beta_word(2)) is None
    renamed = template_from_word(commutator(gen(5), commutator(gen(2), gen(9))))
    assert gamma_index(renamed) == 3


def test_template_from_word_canonicalizes():
    a = template_from_word(commutator(gen(1), gen(2)))
    b = template_from_word(commutator(gen(7), gen(3)))
    assert a.key == b.key
    assert a.body == b.body


def test_instance_substitution():
    t = gamma_word(2)
    x, y = gen(3) * gen(4), gen(5).inverse()
    assert t.instance({1: x, 2: y}) == commutator(x, y)


def test_commutator_product_decomposition():
    for g in range(1, 5):
        pairs = commutator_product_decomposition(commutator_product_word(g).body)
        assert pairs is not None and len(pairs) == g
    assert commutator_product_decomposition(gamma_word(3).body) is None
    repeated = commutator(gen(1), gen(2)) * commutator(gen(1), gen(3))
    assert commutator_product_decomposition(repeated) is None


def test_fresh_commutator_split():
    for n in range(2, 6):
        head, inner = fresh_commutator_split(gamma_word(n).body)
        assert head == 1
        assert commutator(gen(head), inner) == gamma_word(n).body
    assert fresh_commutator_split(gen(1) * gen(2)) is None
    tangled = commutator(gen(1), gen(1) * gen(2))
    assert fresh_commutator_split(tangled) is None

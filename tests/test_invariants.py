import itertools
import random

import pytest

from braidpoly import (
    BraidWord,
    ConsistencyError,
    ConstructionError,
    FLIPPED,
    KEPT,
    LaurentPoly2,
    SMOOTHED,
    alexander,
    braid_index_certificate,
    classify,
    construct_u_prime,
    construct_u_star,
    construct_v_star,
    homfly,
    leaf_membership_test,
    mfw_bounds,
    mirror,
    parse_braid,
    verify_bijection,
    writhe,
)
from braidpoly import checks, invariants
from braidpoly.corpus import alternating_words
from braidpoly.resolver import ASCENDING, DESCENDING, enumerate_leaves

from _burau import burau_matches

FIG8 = "1 -2 1 -2"


class TestMfwBounds:
    def test_trefoil(self):
        r = mfw_bounds(parse_braid("1 1 1"))
        assert (r.E, r.e, r.span, r.lower_bound) == (-2, -4, 2, 2)

    def test_figure_eight(self):
        r = mfw_bounds(parse_braid(FIG8))
        assert (r.E, r.e, r.span, r.lower_bound) == (2, -2, 4, 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_trivial_links(self, n):
        r = mfw_bounds(parse_braid("", strands=n))
        assert r.span == 2 * (n - 1)
        assert r.lower_bound == n


class TestCertificate:
    def test_figure_eight_certifies_three(self):
        word = parse_braid(FIG8)
        cert = braid_index_certificate(word)
        assert cert.certified and cert.braid_index == 3
        assert (cert.E, cert.e) == (2, -2)
        assert leaf_membership_test(word, construct_u_star(word).states, DESCENDING)
        assert leaf_membership_test(word, construct_v_star(word).states, ASCENDING)

    def test_trefoil_certifies_two(self):
        cert = braid_index_certificate(parse_braid("1 1 1"))
        assert cert.certified and cert.braid_index == 2
        assert (cert.E, cert.e) == (-2, -4)

    def test_lonely_crossing_gives_bound_only(self):
        cert = braid_index_certificate(parse_braid("1 1 -2"))
        assert not cert.certified
        assert cert.braid_index is None
        assert cert.lower_bound == 2

    def test_split_word_certifies_blockwise(self):
        # trefoil block plus a bare strand: indices add over split components
        cert = braid_index_certificate(parse_braid("1 1 1", strands=3))
        assert cert.certified and cert.braid_index == 3
        assert len(cert.blocks) == 2
        assert cert.blocks[1].word.strands == 1

    def test_negative_leading_certifies_via_mirror(self):
        cert = braid_index_certificate(parse_braid("-1 -1 2 2 -1"))
        assert cert.certified and cert.braid_index == 3
        block = cert.blocks[0]
        assert block.flags.negative_leading
        image = mirror(block.word)
        assert leaf_membership_test(image, construct_u_star(image).states, DESCENDING)
        assert leaf_membership_test(image, construct_v_star(image).states, ASCENDING)

    def test_mirror_consistency(self):
        for text in (FIG8, "1 1 1", "1 1 -2 -2 1"):
            word = parse_braid(text)
            assert (
                braid_index_certificate(word).braid_index
                == braid_index_certificate(mirror(word)).braid_index
            )

    def test_split_blocks_reindexing(self):
        blocks = parse_braid("1 1 4 4").split_blocks
        assert [(start, b.text(), b.strands) for start, b in blocks] == [
            (1, "1 1", 2),
            (3, "", 1),
            (4, "1 1", 2),
        ]
        blocks = parse_braid("1 -1 -4 4 -5").split_blocks
        assert [(start, b.text(), b.strands) for start, b in blocks] == [
            (1, "1 -1", 2),
            (3, "", 1),
            (4, "-1 1 -2", 3),
        ]


class TestConsistencyGuard:
    """A certifiable word whose polynomial stays inside the MFW window but
    falls short of the bound must raise, not certify."""

    def test_block_guard(self, monkeypatch):
        # trefoil window is [-4, -2]; a^-2 alone fits it with span 0
        fake = LaurentPoly2({(0, -2): 1})
        monkeypatch.setattr(invariants, "homfly_hecke", lambda w: fake)
        with pytest.raises(ConsistencyError):
            braid_index_certificate(parse_braid("1 1 1"))

    def test_whole_word_guard(self, monkeypatch):
        # window [-5, -1] on 3 strands; the trefoil block keeps its polynomial
        word = parse_braid("1 1 1", strands=3)
        fake = LaurentPoly2({(0, -2): 1})
        real = invariants.homfly_hecke
        monkeypatch.setattr(
            invariants, "homfly_hecke", lambda w: fake if w is word else real(w)
        )
        assert braid_index_certificate(parse_braid("1 1 1")).certified
        with pytest.raises(ConsistencyError):
            braid_index_certificate(word)


class TestUStar:
    def test_figure_eight_states(self):
        u = construct_u_star(parse_braid(FIG8))
        assert u.states == (SMOOTHED, KEPT, SMOOTHED, FLIPPED)
        assert len(u.permutation().cycles) == 3

    def test_figure_eight_contribution(self):
        # the leaf term a^(1-n-w) z^t ((a^2-1)z^-1)^(n-1) at n=3, w=0, t=2
        base = LaurentPoly2({(-1, 2): 1, (-1, 0): -1})  # a^2*z^-1 - z^-1
        term = (base**2).scale_monomial(dz=2, da=-2)
        assert term.to_text() == "a^2 - 2 + a^-2"

    def test_trefoil_all_smoothed(self):
        u = construct_u_star(parse_braid("1 1 1"))
        assert u.states == (SMOOTHED, SMOOTHED, SMOOTHED)
        assert len(u.permutation().cycles) == 2

    def test_non_alternating_rejected(self):
        with pytest.raises(ConstructionError):
            construct_u_star(parse_braid("1 -1"))

    def test_negative_leading_needs_mirror(self):
        with pytest.raises(ConstructionError, match="mirror"):
            construct_u_star(parse_braid("-1 -1 -1"))

    def test_membership_and_gamma(self):
        word = parse_braid(FIG8)
        u = construct_u_star(word)
        assert leaf_membership_test(word, u.states, DESCENDING)


class TestVStar:
    def test_figure_eight_states(self):
        v = construct_v_star(parse_braid(FIG8))
        assert v.states == (KEPT, SMOOTHED, FLIPPED, SMOOTHED)
        assert len(v.permutation().cycles) == 3

    def test_trefoil_states(self):
        v = construct_v_star(parse_braid("1 1 1"))
        assert v.states == (KEPT, SMOOTHED, FLIPPED)
        assert len(v.permutation().cycles) == 2

    def test_empty_word_rejected(self):
        with pytest.raises(ConstructionError):
            construct_v_star(parse_braid("", strands=3))

    def test_ascending_membership(self):
        word = parse_braid(FIG8)
        v = construct_v_star(word)
        assert leaf_membership_test(word, v.states, ASCENDING)


class TestUPrime:
    def test_trefoil(self):
        u = construct_u_prime(parse_braid("1 1 1"))
        assert u.states == (SMOOTHED, SMOOTHED, FLIPPED)

    def test_figure_eight(self):
        word = parse_braid(FIG8)
        u = construct_u_prime(word)
        assert sum(1 for s in u.states if s is SMOOTHED) == 2  # c - n + 1
        assert len(u.permutation().cycles) == 1
        assert leaf_membership_test(word, u.states, DESCENDING)

    def test_non_alternating_rejected(self):
        with pytest.raises(ConstructionError):
            construct_u_prime(parse_braid("1 -1"))

    def test_only_knot_leaf_of_maximal_smoothing(self):
        # every positive-leading reduced alternating word on 2-4 strands with
        # at most 2(n-1)+2 letters
        checked = 0
        for n in (2, 3, 4):
            alphabet = [g if g % 2 else -g for g in range(1, n)]
            for length in range(2 * (n - 1), 2 * (n - 1) + 3):
                for tokens in itertools.product(alphabet, repeat=length):
                    if min(map(tokens.count, alphabet)) < 2:
                        continue
                    word = BraidWord(tokens, n)
                    matching = [
                        leaf.states
                        for leaf in enumerate_leaves(word, DESCENDING)
                        if leaf.gamma == 1 and leaf.t == length - n + 1
                    ]
                    assert matching == [construct_u_prime(word).states], word.text()
                    assert verify_bijection(word, "standard"), word.text()
                    checked += 1
        assert checked == 3739


class TestAlexander:
    def test_trefoil(self):
        report = alexander(parse_braid("1 1 1"))
        assert report.delta.to_text() == "s^2 - 1 + s^-2"
        assert report.leading_coeff == 1 and report.leading_is_unit

    def test_figure_eight(self):
        report = alexander(parse_braid(FIG8))
        assert report.delta.to_text() == "-s^2 + 3 - s^-2"
        assert report.leading_coeff == -1 and report.leading_is_unit

    def test_hopf_link(self):
        report = alexander(parse_braid("1 1"))
        assert report.delta.to_text() == "s - s^-1"
        assert report.leading_coeff == 1

    def test_split_link_vanishes(self):
        report = alexander(parse_braid("", strands=2))
        assert not report.delta
        assert report.leading_coeff == 0 and not report.leading_is_unit

    def test_equals_the_burau_minor_on_random_words(self):
        rng = random.Random(5)
        vanishing = 0
        for _ in range(300):
            strands = rng.randint(2, 6)
            letters = tuple(
                rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(rng.randint(0, 10))
            )
            delta = alexander(BraidWord(letters, strands)).delta
            vanishing += not delta
            for q in (2, 3):
                assert burau_matches(strands, letters, delta.terms(), q), (letters, strands, q)
        # split words, where both sides vanish, and many that do not
        assert 100 < vanishing < 250


def test_failed_certificate_message_keeps_its_text(monkeypatch):
    # the message prints the certificate's repr, field by field
    real = invariants.braid_index_certificate(parse_braid("1 1 3 3"))
    assert repr(real.blocks[1]) == (
        "BlockCertificate(first_strand=3, word=BraidWord(letters=(1, 1), strands=2), "
        "flags=DiagramClass(alternating=True, positive_leading=True, negative_leading=False, "
        "reduced=True, non_split=True), certified=True)"
    )
    cert = braid_index_certificate(parse_braid(FIG8))._replace(certified=False)
    monkeypatch.setattr(checks, "braid_index_certificate", lambda word: cert)
    assert checks.check_alternating_law(parse_braid(FIG8)) == (
        "certificate fails on '1 -2 1 -2': BraidIndexCertificate(certified=False, "
        "braid_index=3, lower_bound=3, E=2, e=-2, blocks=(BlockCertificate(first_strand=1, "
        "word=BraidWord(letters=(1, -2, 1, -2), strands=3), flags=DiagramClass("
        "alternating=True, positive_leading=True, negative_leading=False, reduced=True, "
        "non_split=True), certified=True),))"
    )


class TestAlternatingCorpusLaws:
    """The degree and witness laws on generated reduced alternating words."""

    WORDS = alternating_words(40, max_strands=4, seed=5)

    def positive_leading_version(self, word):
        return word if classify(word).positive_leading else mirror(word)

    def test_degree_law_and_certificates(self):
        for word in self.WORDS:
            n, w = word.strands, writhe(word)
            r = mfw_bounds(word)
            assert (r.E, r.e, r.span) == (n - 1 - w, 1 - n - w, 2 * (n - 1)), word.text()
            cert = braid_index_certificate(word)
            assert cert.certified and cert.braid_index == n, word.text()

    def test_u_star_is_unique_extremal_leaf(self):
        for word in self.WORDS[:20]:
            word = self.positive_leading_version(word)
            u = construct_u_star(word)
            assert leaf_membership_test(word, u.states, DESCENDING), word.text()
            assert len(u.permutation().cycles) == word.strands
            matching = [
                leaf.states
                for leaf in enumerate_leaves(word, DESCENDING)
                if self._matches_extremal_shape(word, leaf.states)
            ]
            assert matching == [u.states], word.text()
            assert verify_bijection(word, "standard"), word.text()

    @staticmethod
    def _matches_extremal_shape(word, states):
        # no surviving odd-gap crossings, exactly two per even gap
        from collections import Counter

        live = Counter(
            word.gaps[i] for i, s in enumerate(states) if s is not SMOOTHED
        )
        for gap in range(1, word.strands):
            expected = 0 if gap % 2 else 2
            if live.get(gap, 0) != expected:
                return False
        return True

    def test_v_star_in_ascending_leaves(self):
        for word in self.WORDS[:20]:
            word = self.positive_leading_version(word)
            v = construct_v_star(word)
            assert len(v.permutation().cycles) == word.strands
            stream = {leaf.states for leaf in enumerate_leaves(word, ASCENDING)}
            assert v.states in stream, word.text()
            assert verify_bijection(word, "dual"), word.text()

    def test_u_prime_attains_max_smoothing_among_knot_leaves(self):
        for word in self.WORDS[:20]:
            word = self.positive_leading_version(word)
            u = construct_u_prime(word)
            expected_t = len(word) - word.strands + 1
            assert sum(1 for s in u.states if s is SMOOTHED) == expected_t
            assert len(u.permutation().cycles) == 1
            for leaf in enumerate_leaves(word, DESCENDING):
                if leaf.gamma == 1:
                    assert leaf.t <= expected_t, word.text()
            assert verify_bijection(word, "standard"), word.text()

    def test_alexander_leading_coefficient_is_unit(self):
        for word in self.WORDS:
            assert alexander(word).leading_is_unit, word.text()

"""Hypothesis strategies for braid words and normalized braids, shared by the tests."""

import hypothesis.strategies as st

from braidkit import BraidWord, normalize


@st.composite
def braid_words(draw, min_n=2, max_n=6, max_len=10):
    n = draw(st.integers(min_n, max_n))
    signs = st.sampled_from((1, -1))
    letters = draw(st.lists(
        st.builds(lambda i, s: i * s, st.integers(1, n - 1), signs),
        max_size=max_len,
    ))
    return BraidWord(n, tuple(letters))


@st.composite
def braids(draw, min_n=2, max_n=6, max_len=10):
    return normalize(draw(braid_words(min_n, max_n, max_len)))


@st.composite
def braid_pairs(draw, min_n=2, max_n=6, max_len=8):
    word = draw(braid_words(min_n, max_n, max_len))
    other = draw(braid_words(word.n, word.n, max_len))
    return normalize(word), normalize(other)


@st.composite
def braid_triples(draw, min_n=2, max_n=5, max_len=6):
    word = draw(braid_words(min_n, max_n, max_len))
    second = draw(braid_words(word.n, word.n, max_len))
    third = draw(braid_words(word.n, word.n, max_len))
    return normalize(word), normalize(second), normalize(third)

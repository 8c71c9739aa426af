"""Seeded synthetic text corpus for the character-level LM workload.

The text is a first-order Markov chain over a small invented vocabulary of
syllable words, so it has the structure a fixed-context character model can
learn (spelling inside words, a few likely successors between words) without
any download. The same seed always yields the same text.
"""

from __future__ import annotations

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_N_WORDS = 120
_SUCCESSORS = 4


def _words(rng: np.random.Generator, n_words: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n_words:
        n_syll = int(rng.integers(1, 4))
        words.add("".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                          + _VOWELS[rng.integers(len(_VOWELS))] for _ in range(n_syll)))
    return sorted(words)


def synthetic_corpus(seed: int, n_chars: int) -> str:
    """Return ``n_chars`` characters of seeded Markov-chain text.

    Each of the 120 words has 4 possible next words with Zipf-like weights;
    a sentence ends with a period after 4 to 9 words.
    """
    if n_chars < 1:
        raise ValueError("n_chars must be positive")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1A11]))
    words = _words(rng, _N_WORDS)
    nxt = rng.integers(_N_WORDS, size=(_N_WORDS, _SUCCESSORS))
    weights = 1.0 / np.arange(1, _SUCCESSORS + 1)
    cum = np.cumsum(weights / weights.sum())
    # each word takes at least three characters, which bounds the draws needed
    max_words = n_chars // 3 + 1
    picks = np.searchsorted(cum, rng.random(max_words))
    lengths = rng.integers(4, 10, size=max_words)
    parts: list[str] = []
    length = 0
    word = int(rng.integers(_N_WORDS))
    sentence_left = int(lengths[0])
    for k in range(max_words):
        sentence_left -= 1
        if sentence_left == 0:
            text = words[word] + ". "
            sentence_left = int(lengths[k])
        else:
            text = words[word] + " "
        parts.append(text)
        length += len(text)
        if length >= n_chars:
            break
        word = int(nxt[word, picks[k]])
    return "".join(parts)[:n_chars]

"""Loop reference for the co-occurrence counts of ``cooccurrence_embed``:
every ordered pair of distinct positions in each window, counted one at a time."""

import numpy as np


def cooccurrence_counts(windows):
    """The vocabulary in first-seen order and the V x V count matrix."""
    vocab, index = [], {}
    for w in windows:
        for tok in w:
            if tok not in index:
                index[tok] = len(vocab)
                vocab.append(tok)
    C = np.zeros((len(vocab), len(vocab)))
    for w in windows:
        ids = [index[t] for t in w]
        for a in range(len(ids)):
            for b in range(len(ids)):
                if a != b:
                    C[ids[a], ids[b]] += 1.0
    return vocab, C

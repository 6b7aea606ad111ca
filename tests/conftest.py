"""Shared helpers for the test suite.

Expected values in test bodies are written in the compact syntax (lowercase
letter for a generator, uppercase for its inverse, 1 for the empty word) and
parsed against a small fixed alphabet, so the frozen words stay legible.
The oracle module works on raw (generator index, sign) tuples; to_tuples and
from_tuples bridge the two representations.
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent))

import cycred
from cycred import Alphabet, Letter, Word
from cycred.syntax import format_compact, parse_compact

AB2 = Alphabet("x", "y")
AB3 = Alphabet("x", "y", "z")
AB4 = Alphabet("x", "y", "z", "t")
ALPHABETS = {2: AB2, 3: AB3, 4: AB4}


def W(text, alphabet=AB4):
    return parse_compact(text, alphabet)


def F(word):
    return format_compact(word)


def to_tuples(word):
    return tuple((l.generator, l.sign) for l in word)


def from_tuples(alphabet, pairs):
    return alphabet.word(pairs)


def run_python(args, hashseed=0):
    """stdout of a child interpreter run with args, importing this cycred,
    under a fixed PYTHONHASHSEED."""
    src = str(Path(cycred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _letters(alphabet):
    return [Letter(g, s) for g in range(len(alphabet)) for s in (1, -1)]


def words(alphabet=AB2, max_len=12):
    pairs = st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1)))
    return st.lists(pairs, max_size=max_len).map(alphabet.word)


@st.composite
def reduced_words(draw, alphabet=AB2, min_len=0, max_len=12):
    n = draw(st.integers(min_len, max_len))
    pool = _letters(alphabet)
    out = []
    for _ in range(n):
        options = [l for l in pool if not out or l != out[-1].inverse()]
        out.append(draw(st.sampled_from(options)))
    return Word(alphabet, out)


@st.composite
def cyc_reduced_words(draw, alphabet=AB2, min_len=0, max_len=12):
    w = draw(reduced_words(alphabet, min_len, max_len))
    ls = list(w.letters)
    if len(ls) >= 2 and ls[-1] == ls[0].inverse():
        # at least four letters exist, so a legal replacement always does
        options = [l for l in _letters(alphabet)
                   if l != ls[-2].inverse() and l != ls[0].inverse()]
        ls[-1] = draw(st.sampled_from(options))
    return Word(alphabet, ls)

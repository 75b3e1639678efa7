"""Seeded synthetic review corpus so every experiment runs offline.

Generates a book-metadata CSV and a ratings CSV shaped like the real
export: joinable titles, text prices with occasional gaps, unix review
times, and 1-5 scores whose summary text carries a tunable amount of
signal. correlation=0 makes summaries pure noise; 1 makes every content
token score-aligned. Quote/newline stress and malformed-row injection are
exact and counted so parser tests can assert the bookkeeping.

A corpus is a fixed function of its seed and flags. The writers make
numpy ``Generator`` scalar draws in a fixed order; ``ScalarDraws`` reads
the same bits from the bit generator in blocks, so every file is
byte-identical to the one that one ``Generator`` call per draw wrote.
"""

import csv
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEUTRAL_WORDS = (
    "book story author pages chapter plot characters novel series writing "
    "read reading volume cover library copy paperback edition shelf print "
    "title subject topic text words review notes ideas style setting theme "
    "ending beginning middle narrator voice tone length detail"
).split()

POSITIVE_WORDS = (
    "great excellent wonderful loved amazing brilliant captivating gripping "
    "beautiful inspiring delightful superb recommend favorite enjoyable "
    "fantastic compelling rewarding"
).split()

NEGATIVE_WORDS = (
    "terrible boring awful disappointing dull weak tedious confusing "
    "unreadable waste shallow frustrating predictable sloppy forgettable "
    "bland lifeless annoying"
).split()

INTENSITY_WORDS = {
    1: "unreadable atrocious dreadful abysmal insufferable hopeless".split(),
    2: "weak sloppy tiresome lacking mediocre underwhelming".split(),
    3: "okay average middling passable uneven acceptable".split(),
    4: "solid enjoyable engaging satisfying pleasant worthwhile".split(),
    5: "masterpiece flawless stunning unforgettable magnificent perfect".split(),
}

STRESS_PHRASES = (
    'loved it, truly "unputdownable"',
    "good, bad, and strange",
    'the "so-called" sequel',
    "first line\nsecond line",
    'quotes "inside, with commas"',
)

CATEGORIES = ("Fiction", "History", "Science", "Mystery", "Romance", "Biography")

SCORE_PROBS = {1: 0.08, 2: 0.12, 3: 0.20, 4: 0.25, 5: 0.35}

MAX_SUMMARY_TOKENS = 8

_MASK32 = 0xFFFFFFFF
# 64-bit outputs read per random_raw call: large enough that numpy's per-call
# cost vanishes, small enough that a one-row corpus reads little ahead.
_BLOCK = 4096


@dataclass
class SynthStats:
    books_path: str
    ratings_path: str
    n_books: int
    n_users: int
    n_ratings: int
    malformed_written: int
    missing_price: int


class ScalarDraws:
    """A PCG64 ``Generator``'s scalar draws, read from its bit generator in blocks.

    ``random()``, ``integers(low, high)`` and ``pick(seq)`` return what
    ``rng.random()``, ``rng.integers(low, high)`` and
    ``seq[rng.integers(len(seq))]`` would, call for call, without numpy's
    per-call argument handling. ``random()`` is the top 53 bits of one 64-bit
    output. ``integers`` is Lemire's bounded method with rejection over
    32-bit draws: the low half of a 64-bit output first, its high half kept
    for the next 32-bit draw (numpy's ``has_uint32`` buffer), and a range of
    one draws nothing. A range outside [1, 2**32] raises ``ValueError``. The
    reader reads ahead, so ``rng`` must not be drawn from once it exists.
    """

    __slots__ = ("_raw", "_doubles", "_lo", "_hi", "_pos", "_half")

    def __init__(self, rng):
        bitgen = rng.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise ValueError(f"ScalarDraws reads PCG64, not {state['bit_generator']}")
        self._raw = bitgen.random_raw
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._refill()

    def _refill(self):
        raw = self._raw(_BLOCK)
        self._doubles = ((raw >> 11) * 2.0**-53).tolist()
        self._lo = (raw & _MASK32).tolist()
        self._hi = (raw >> 32).tolist()
        self._pos = 0

    def random(self):
        if self._pos == _BLOCK:
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._doubles[pos]

    def _below(self, n):
        """A draw in [0, n) for 1 <= n <= 2**32."""
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"range {n} lies outside [1, 2**32]")
        while True:
            half = self._half
            if half is None:
                if self._pos == _BLOCK:
                    self._refill()
                pos = self._pos
                self._pos = pos + 1
                self._half = self._hi[pos]
                m = self._lo[pos] * n
            else:
                self._half = None
                m = half * n
            # Accept unless the low word falls below (2**32 - n) % n, which is
            # less than n, so the modulo is needed only when it falls below n.
            if m & _MASK32 >= n or m & _MASK32 >= ((1 << 32) - n) % n:
                return m >> 32

    def integers(self, low, high):
        return low + self._below(high - low)

    def pick(self, seq):
        return seq[self._below(len(seq))]


def _summary_tokens(draws, score, correlation, n_tokens):
    polarity = POSITIVE_WORDS if score >= 4 else NEGATIVE_WORDS
    intensity = INTENSITY_WORDS[score]
    random, pick = draws.random, draws.pick
    tokens = []
    for _ in range(n_tokens):
        if random() < correlation:
            pool = intensity if random() < 0.3 else polarity
        else:
            pool = NEUTRAL_WORDS
        tokens.append(pick(pool))
    return tokens


def write_books_csv(path, n_books, seed):
    draws = ScalarDraws(np.random.default_rng(seed))
    integers, pick = draws.integers, draws.pick
    author_high = max(2, n_books // 3)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["title", "description", "authors", "image", "preview", "publisher",
             "publish_date", "info_link", "categories", "ratings_count"]
        )
        for b in range(n_books):
            title = f"Book {b:05d}"
            desc_words = [pick(NEUTRAL_WORDS) for _ in range(10)]
            writer.writerow(
                [
                    title,
                    " ".join(desc_words),
                    f"Author {integers(1, author_high):04d}",
                    f"http://img.example/{b}.jpg",
                    f"http://preview.example/{b}",
                    f"Publisher {integers(1, 40):02d}",
                    integers(1950, 2023),
                    f"http://info.example/{b}",
                    pick(CATEGORIES),
                    integers(0, 5000),
                ]
            )


def write_ratings_csv(path, n_books, n_users, seed, n_rows=None, target_bytes=None,
                      correlation=0.6, missing_price_rate=0.02,
                      malformed_rate=0.0, stress_rate=0.01):
    """Write the ratings CSV; returns (rows_written, malformed, missing_price).

    Stops after n_rows data records, or once the file exceeds target_bytes.
    Malformed records carry one extra field, so they are well-formed CSV
    with the wrong arity.
    """
    if n_rows is None and target_bytes is None:
        raise ValueError("need n_rows or target_bytes")
    rng = np.random.default_rng(seed)
    scores = sorted(SCORE_PROBS)
    # rng.choice(scores, p=probs) is one random() looked up in this cdf.
    cdf = np.asarray([SCORE_PROBS[s] for s in scores]).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    prices = [f"{p:.2f}" for p in np.round(rng.uniform(3.0, 60.0, n_books), 2)]
    draws = ScalarDraws(rng)
    random, integers, pick = draws.random, draws.integers, draws.pick
    malformed = 0
    missing_price = 0
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "title", "price", "user_id", "profile_name", "r_helpfulness",
             "r_score", "r_time", "r_summary", "r_review"]
        )
        while True:
            if n_rows is not None and rows >= n_rows:
                break
            if target_bytes is not None and rows % 2000 == 0 and fh.tell() >= target_bytes:
                break
            book = integers(0, n_books)
            user = integers(0, n_users)
            score = scores[bisect_right(cdf, random())]
            n_tok = integers(3, MAX_SUMMARY_TOKENS + 1)
            toks = _summary_tokens(draws, score, correlation, n_tok)
            if random() < stress_rate:
                toks.append(pick(STRESS_PHRASES))
            summary = " ".join(toks)
            review = " ".join(
                _summary_tokens(draws, score, correlation * 0.5, 3 * n_tok)
            )
            price = "" if random() < missing_price_rate else prices[book]
            if price == "":
                missing_price += 1
            record = [
                rows + 1,
                f"Book {book:05d}",
                price,
                f"U{user:06d}",
                f"Reader {user:06d}",
                f"{integers(0, 8)}/{integers(8, 20)}",
                score,
                integers(860_000_000, 1_700_000_000),
                summary,
                review,
            ]
            if malformed_rate > 0 and random() < malformed_rate:
                record.append("spurious-field")
                malformed += 1
            writer.writerow(record)
            rows += 1
    return rows, malformed, missing_price


def generate_corpus(out_dir, n_ratings=5000, n_books=None, n_users=None, seed=7,
                    correlation=0.6, missing_price_rate=0.02,
                    malformed_rate=0.0, stress_rate=0.01):
    """Write books_data.csv and Books_rating.csv under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if n_books is None:
        n_books = max(50, n_ratings // 10)
    if n_users is None:
        n_users = max(20, n_ratings // 5)
    books_path = out / "books_data.csv"
    ratings_path = out / "Books_rating.csv"
    write_books_csv(books_path, n_books, seed)
    rows, malformed, missing = write_ratings_csv(
        ratings_path, n_books, n_users, seed + 1,
        n_rows=n_ratings,
        correlation=correlation,
        missing_price_rate=missing_price_rate,
        malformed_rate=malformed_rate,
        stress_rate=stress_rate,
    )
    return SynthStats(
        books_path=str(books_path),
        ratings_path=str(ratings_path),
        n_books=n_books,
        n_users=n_users,
        n_ratings=rows,
        malformed_written=malformed,
        missing_price=missing,
    )

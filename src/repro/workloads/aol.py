"""A synthetic AOL-search-query-log workload.

The paper ingests 1,000,001 records of the AOL Search Query Log (also used
by StreamBench): five tab-separated columns — user ID, the issued query,
query time, clicked result rank (if any), clicked result URL (if any).
The original data set was withdrawn and is not redistributable, so this
module generates a synthetic equivalent that preserves every property the
benchmark queries depend on:

* five tab-separated columns with realistic shapes;
* the grep query's needle ``"test"`` appears in **exactly**
  ``round(N * 3003 / 1000001)`` records — the paper reports 3,003 matches
  (≈ 0.3%) at full scale, and the proportion is kept exact at any scale;
* rank/URL columns are present for roughly half the records (AOL kept
  them only for click events);
* generation is fully deterministic given a seed.

:func:`generate_records` is the reference generator.  The benchmark
harness ingests the same workload as byte columns generated slab-direct
by :mod:`repro.workloads.columnar` (:meth:`AolWorkload.columnar`), which
``tests/workloads/test_columnar.py`` pins byte for byte against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.simtime.randomness import RandomSource

#: Version of the generation algorithm.  Any change to the generated byte
#: stream (new columns, different draw order, ...) must bump this: the
#: on-disk workload cache (:mod:`repro.workloads.cache`) keys entries by
#: it, so stale files from an older generator are never served.
GENERATOR_VERSION = 1

#: Records per chunk of the bulk generator (small enough to keep the
#: transient chunk cheap, large enough to amortise per-chunk overhead).
DEFAULT_CHUNK_SIZE = 50_000

#: Record count used by the paper.
FULL_SCALE_RECORDS = 1_000_001
#: Matches the paper reports for the grep query at full scale.
FULL_SCALE_GREP_MATCHES = 3_003
#: The grep query's search string.
GREP_NEEDLE = "test"

_WORDS = (
    "weather", "maps", "lyrics", "games", "yahoo", "google", "bank",
    "school", "hotel", "cheap", "flight", "jobs", "news", "movie",
    "recipe", "music", "pictures", "county", "florida", "texas",
    "university", "craigslist", "dictionary", "ebay", "horoscope",
    "insurance", "lottery", "myspace", "phone", "real", "estate",
)

_URL_HOSTS = (
    "www.example.com", "www.search-results.net", "www.shopping.org",
    "www.localnews.info", "www.directory.biz",
)


@dataclass(frozen=True)
class AolRecord:
    """A parsed record of the workload."""

    user_id: str
    query: str
    query_time: str
    item_rank: str
    click_url: str

    def line(self) -> str:
        """The tab-separated wire format."""
        return "\t".join(
            (self.user_id, self.query, self.query_time, self.item_rank, self.click_url)
        )


def parse_record(line: str) -> AolRecord:
    """Parse a tab-separated line into an :class:`AolRecord`."""
    parts = line.split("\t")
    if len(parts) != 5:
        raise ValueError(f"expected 5 tab-separated columns, got {len(parts)}")
    return AolRecord(*parts)


def query_column(line: str) -> str:
    """The query column, ``line.split("\\t")[1]``; a tab-less line is its
    own query column."""
    parts = line.split("\t")
    return parts[1] if len(parts) > 1 else line


def event_time(line: str) -> float:
    """Event time in seconds from the fixed-width ``QueryTime`` column.

    The generator emits ``2006-03-DD HH:MM:SS`` (fixed width), so the
    digits slice positionally — no datetime parsing on the hot path.
    """
    t = line.split("\t", 3)[2]
    return float(
        int(t[8:10]) * 86400
        + int(t[11:13]) * 3600
        + int(t[14:16]) * 60
        + int(t[17:19])
    )


def first_word(line: str) -> str:
    """The query column up to its first space."""
    return query_column(line).partition(" ")[0]


def expected_grep_matches(num_records: int) -> int:
    """Number of records containing the grep needle at a given scale."""
    return round(num_records * FULL_SCALE_GREP_MATCHES / FULL_SCALE_RECORDS)


#: Zero-padded two-digit strings; index-to-text without per-record ``%02d``.
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))


def iter_record_chunks(
    num_records: int, seed: int = 2006, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[list[str]]:
    """Generate the workload lines in chunks of ``chunk_size``.

    The concatenation of all chunks is **bit-identical** to
    :func:`generate_records` (same RNG draw sequence, same lines) — the
    chunking only bounds how much transient state exists at once, so the
    pure-Python column generator can stream it without holding the
    workload twice.
    """
    if num_records < 0:
        raise ValueError(f"num_records must be >= 0, got {num_records}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    rng = RandomSource(seed).stream("aol")
    matches = expected_grep_matches(num_records)
    match_positions = _spread_positions(num_records, matches)

    # Hot loop: bind everything to locals.  Every rng call below must keep
    # the exact draw sequence of generator version 1.
    randrange = rng.randrange
    rand = rng.random
    words = _WORDS
    num_words = len(words)
    hosts = _URL_HOSTS
    num_hosts = len(hosts)
    two = _TWO_DIGITS
    needle_term = GREP_NEEDLE + " scores"
    for chunk_start in range(0, num_records, chunk_size):
        chunk: list[str] = []
        append = chunk.append
        for index in range(chunk_start, min(chunk_start + chunk_size, num_records)):
            user_id = str(100000 + randrange(900000))
            terms = [words[randrange(num_words)] for _ in range(1 + randrange(3))]
            if index in match_positions:
                terms.insert(randrange(len(terms) + 1), needle_term)
            query = " ".join(terms)
            query_time = (
                "2006-03-"
                + two[1 + randrange(28)]
                + " "
                + two[randrange(24)]
                + ":"
                + two[randrange(60)]
                + ":"
                + two[randrange(60)]
            )
            if rand() < 0.5:
                item_rank = str(1 + randrange(10))
                click_url = f"http://{hosts[randrange(num_hosts)]}/{terms[0]}"
            else:
                item_rank = ""
                click_url = ""
            append("\t".join((user_id, query, query_time, item_rank, click_url)))
        yield chunk


def generate_records(num_records: int, seed: int = 2006) -> list[str]:
    """Generate ``num_records`` deterministic workload lines.

    The grep needle is embedded in exactly
    :func:`expected_grep_matches(num_records)` records, spread evenly
    through the stream (the paper's matches come from natural queries such
    as "test scores", so they are not clustered).
    """
    lines: list[str] = []
    for chunk in iter_record_chunks(num_records, seed):
        lines.extend(chunk)
    return lines


def _spread_positions(total: int, count: int) -> set[int]:
    """Exactly ``count`` evenly spread, distinct indices in ``range(total)``."""
    if count <= 0 or total <= 0:
        return set()
    count = min(count, total)
    step = total / count
    # step >= 1 makes floor(i * step) strictly increasing, so the set has
    # exactly ``count`` members.
    return {int(i * step) for i in range(count)}


#: ``verify()`` parses about this many stride-sampled lines regardless of
#: scale, so full-scale verification stays cheap.
VERIFY_SAMPLE_TARGET = 1_000


class AolWorkload:
    """A reusable workload instance: records plus derived ground truths.

    The workload lives as byte columns (:meth:`columnar`), which go through
    :mod:`repro.workloads.cache`: an in-process memo shares one
    :class:`~repro.workloads.columnar.ColumnarWorkload` between every
    workload/harness with the same (version, seed, count), and large
    workloads additionally hit the versioned on-disk cache, so generation
    is paid once per machine instead of once per harness (or per worker
    process of a parallel campaign).  :attr:`records` is the one shared
    decode of those columns and must be treated as immutable.
    """

    def __init__(self, num_records: int = FULL_SCALE_RECORDS, seed: int = 2006) -> None:
        self.num_records = num_records
        self.seed = seed
        self._columnar = None

    @property
    def records(self) -> list[str]:
        """The generated lines: the one shared decode of :meth:`columnar`."""
        return self.columnar().records

    def columnar(self):
        """The workload as shared byte columns (the harness's data plane).

        Goes through the cache tiers of :mod:`repro.workloads.cache` —
        slab-direct generation on a cold miss, an O(1) ``mmap`` load on a
        warm one — and returns a
        :class:`~repro.workloads.columnar.ColumnarWorkload` whose byte
        stream is bit-identical to :func:`generate_records`.
        """
        if self._columnar is None:
            from repro.workloads.cache import load_columnar_workload

            self._columnar = load_columnar_workload(self.num_records, self.seed)
        return self._columnar

    @property
    def grep_matches(self) -> int:
        """Exact number of lines containing the grep needle."""
        return expected_grep_matches(self.num_records)

    def verify(self, sample_stride: int | None = None) -> None:
        """Assert the generated data has the promised properties.

        The grep-match count is checked over the full stream (a substring
        scan is cheap); column shape is checked on a deterministic stride
        sample covering the *whole* stream — about
        ``VERIFY_SAMPLE_TARGET`` lines at any scale, always including the
        first and last record — instead of the first few lines only.
        ``sample_stride=1`` forces an exhaustive parse.
        """
        records = self.records
        actual = sum(1 for line in records if GREP_NEEDLE in line)
        if actual != self.grep_matches:
            raise AssertionError(
                f"expected {self.grep_matches} grep matches, found {actual}"
            )
        if sample_stride is not None and sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        total = len(records)
        if total == 0:
            return
        stride = sample_stride or max(1, total // VERIFY_SAMPLE_TARGET)
        for index in range(0, total, stride):
            parse_record(records[index])
        parse_record(records[-1])

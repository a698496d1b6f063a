"""Observation handling: pattern tables, internal states and internal views.

Receiver observations are kept collapsed: per tree, a map from the receiver
bit pattern to the number of probes that produced it, read by parse_data or
drawn by simulate.  The estimators derive all they consume from those counts.

The internal state of a link for one probe is 1 when some receiver below
the link saw the probe, which proves the probe passed the link.  Summing
internal states over probes gives the internal view {n_i(1), n_i(0)}: the
count of confirmed passes, and the count of probes confirmed at the parent
but unseen below the link.  Internal views add across trees for links
shared by several trees.

parse_data splits and checks the pattern lines in bulk (keyword_block) and
reads the file line by line when a check fails, to name the first bad line.

Views are counted on arrays, one tree at a time, on the tree's positional
form: the bit matrix of the tree's distinct patterns fills the leaf rows of
a (links x patterns) array in tree.order, each row is ORed into its
parent's row, bottom-up, and n_i(1) is the count-weighted sum of link i's
row, one einsum for all rows.  Bit column j is the j-th ascending leaf link
id, which internal_views checks against the network before it counts.
internal_views is the one-table case of internal_views_replicates, which
ORs up the patterns of many tables, side by side, once per tree, and keeps
every count by position: each view holds its trees' and its network's
n1 and n0 as (2 x positions) rows (_CountedView), and builds its link-keyed
dicts only when something reads them.  InternalView.counts (lists) and
InternalView.rows, stacked by count_rows, are the positional reads.  Tables
are checked where they are counted (internal_views) or leave the program
(simulate, parse_data).  Each view's regularity report holds the same
aggregated row and fills its fields on first read (_CountedReport), so a
pooled grid whose estimators take their flags on arrays builds none:
regularity_rows flags the links of a network or a tree on many datasets'
counts at once, as regularity_by_position does on one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import groupby
from operator import attrgetter

import numpy as np

from .topology import GeneralNetwork, MulticastTree, keyword_block, token_lines


class DataError(ValueError):
    """Raised when observation data is malformed or inconsistent."""


@dataclass
class PatternTable:
    """Collapsed receiver observations, one count map per tree.

    Bit order within a pattern is the ascending leaf link ids of the tree,
    leftmost bit for the smallest id.
    """

    name: str
    probes: dict[int, int]                      # tree_id -> number of probes
    receivers: dict[int, tuple[int, ...]]       # tree_id -> leaf link ids, ascending
    counts: dict[int, dict[str, int]]           # tree_id -> bit pattern -> count

    def validate(self):
        for k in self.probes:
            self.bit_matrix(k)

    def bit_matrix(self, k: int) -> np.ndarray:
        """Tree k's patterns as a (patterns x receivers) bool matrix.

        Rows follow counts[k] order; column j is receivers[k][j].  Tree k's
        entries are checked on the same bytes first: every key is a width-long
        ASCII string of 0 and 1, every count is >= 1 and the counts sum to
        probes[k].  When a check fails, the per-pattern loop raises the
        DataError that names the first bad pattern.
        """
        pats = self.counts.get(k, {})
        width = len(self.receivers[k])
        raw = _ascii_keys(pats, width)
        if raw is not None:
            # on large tables, min and max of the array are faster than a translate
            codes = np.frombuffer(raw, np.uint8).reshape(len(pats), width)
            zero, one = ord("0"), ord("1")
            if (codes.min(initial=zero) >= zero and codes.max(initial=one) <= one
                    and min(pats.values(), default=1) >= 1
                    and sum(pats.values()) == self.probes[k]):
                return codes == one
        self._check_patterns(k)
        # only keys that are not str get past the loop
        raise DataError(f"tree {k}: patterns are not {width}-character strings of 0 and 1")

    def _check_patterns(self, k: int):
        width = len(self.receivers[k])
        total = 0
        for bits, c in self.counts.get(k, {}).items():
            if len(bits) != width or set(bits) - {"0", "1"}:
                raise DataError(f"tree {k}: bad pattern {bits!r}")
            if c < 1:
                raise DataError(f"tree {k}: pattern {bits} has count {c}")
            total += c
        if total != self.probes[k]:
            raise DataError(f"tree {k}: pattern counts sum to {total}, expected {self.probes[k]}")


def _ascii_keys(keys: dict[str, int], width: int) -> bytes | None:
    """The keys joined as ASCII bytes when every key is a width-long str of ASCII
    characters, else None."""
    try:
        raw = "".join(keys).encode("ascii")
    except (TypeError, UnicodeEncodeError):
        return None
    return raw if set(map(len, keys)) <= {width} else None


@dataclass(frozen=True)
class InternalStateVector:
    """Link states implied by one probe's receiver pattern.

    confirmed: links the probe provably passed.
    dark_tops: links whose parent was provably reached while the whole
               subtree below stayed dark (the topmost unconfirmed links).
    unknown:   links below a dark top; they carry no likelihood term.
    """

    y: dict[int, int]
    confirmed: tuple[int, ...]
    dark_tops: tuple[int, ...]
    unknown: tuple[int, ...]


def internal_states(bits: str, tree: MulticastTree) -> InternalStateVector:
    """Compute per-link internal states for one receiver pattern."""
    if len(bits) != len(tree.leaves):
        raise DataError(
            f"pattern {bits!r} has {len(bits)} bits, tree {tree.tree_id} "
            f"has {len(tree.leaves)} receivers")
    y: dict[int, int] = {}
    for pos, leaf in enumerate(tree.leaves):
        y[leaf] = 1 if bits[pos] == "1" else 0
    for i in reversed(tree.order):
        kids = tree.children[i]
        if kids:
            y[i] = 1 if any(y[c] for c in kids) else 0
    confirmed, dark_tops, unknown = [], [], []
    for i in tree.order:
        y_up = 1 if i == tree.root_link else y[tree.parent[i]]
        if y[i]:
            confirmed.append(i)
        elif y_up:
            dark_tops.append(i)
        else:
            unknown.append(i)
    return InternalStateVector(y, tuple(confirmed), tuple(dark_tops), tuple(unknown))


@dataclass
class InternalView:
    """Per-link pass/unseen counts, per tree and aggregated across trees.

    r is the per-link confirmed pass fraction n1/(n1+n0), or None when the
    link received no information at all.  A view built from these dicts
    reads them by link id; internal_views builds a _CountedView, which
    keeps the counts by position.
    """

    per_tree_n1: dict[int, dict[int, int]]
    per_tree_n0: dict[int, dict[int, int]]
    n1: dict[int, int]
    n0: dict[int, int]
    r: dict[int, float | None]
    probes: dict[int, int]

    def counts(self, s: GeneralNetwork | MulticastTree) -> tuple[list[int], list[int]]:
        """(n1, n0) over s.order: tree s's own counts, or network s's aggregated ones."""
        n1, n0 = ((self.per_tree_n1[s.tree_id], self.per_tree_n0[s.tree_id])
                  if isinstance(s, MulticastTree) else (self.n1, self.n0))
        return list(map(n1.__getitem__, s.order)), list(map(n0.__getitem__, s.order))

    def rows(self, s: GeneralNetwork | MulticastTree) -> np.ndarray:
        """counts(s) as one (2 x positions) array, n1 above n0."""
        return np.array(self.counts(s))

    def tree_ids(self) -> list[int]:
        """The ids of the trees with counts, ascending."""
        return sorted(self.per_tree_n1)


class _CountedView(InternalView):
    """An InternalView as internal_views_replicates counts it: per tree, and
    aggregated over the network, n1 above n0 in one (2 x positions) int
    array over the structure's order (rows, counts).  The link-keyed fields
    are built from those rows when first read, in the key order and with the
    plain ints a view from dicts would hold."""

    def __init__(self, net: GeneralNetwork, by_tree: dict[int, np.ndarray],
                 total: np.ndarray, probes: dict[int, int]):
        self._net, self._by_tree, self._total, self.probes = net, by_tree, total, probes

    def rows(self, s: GeneralNetwork | MulticastTree) -> np.ndarray:
        if s is self._net:
            return self._total
        if isinstance(s, MulticastTree) and self._net.tree_by_id.get(s.tree_id) is s:
            return self._by_tree[s.tree_id]
        return np.array(InternalView.counts(self, s))   # another structure: by link id

    def counts(self, s: GeneralNetwork | MulticastTree) -> tuple[list[int], list[int]]:
        return tuple(self.rows(s).tolist())

    def tree_ids(self) -> list[int]:
        return sorted(self._by_tree)

    def _per_tree(self, row: int) -> dict[int, dict[int, int]]:
        out = {}
        for k, rows in self._by_tree.items():
            tree, counts = self._net.tree_by_id[k], rows[row].tolist()
            out[k] = {i: counts[tree.pos[i]] for i in tree.links}
        return out

    def _aggregated(self, row: int) -> dict[int, int]:
        counts, pos = self._total[row].tolist(), self._net.pos
        return {i: counts[pos[i]] for i in self._net.links}

    per_tree_n1 = cached_property(lambda self: self._per_tree(0))
    per_tree_n0 = cached_property(lambda self: self._per_tree(1))
    n1 = cached_property(lambda self: self._aggregated(0))
    n0 = cached_property(lambda self: self._aggregated(1))
    r = cached_property(lambda self: dict(zip(self.n1, pass_fractions(
        list(self.n1.values()), list(self.n0.values())))))


def count_rows(views_list: list[InternalView], s: GeneralNetwork | MulticastTree
               ) -> np.ndarray:
    """Each view's rows(s) stacked: (datasets x 2 x positions over s.order)."""
    return np.stack([views.rows(s) for views in views_list])


def pass_fractions(n1: list, n0: list) -> list[float | None]:
    """The confirmed pass fraction n1/(n1+n0) per position, None where both are 0."""
    return [c1 / (c1 + c0) if c1 + c0 > 0 else None for c1, c0 in zip(n1, n0)]


@dataclass
class RegularityReport:
    """Data conditions under which the interior MLE exists and is unique.

    all_ok requires, for every link: some confirmed passes, some confirmed
    non-passes, and the brother-set pass counts to strictly exceed the
    parent pass counts (no degenerate fixed point).
    """

    n1_zero: frozenset[int]
    n0_zero: frozenset[int]
    no_information: frozenset[int]
    brother_sum_violation: frozenset[int]
    all_ok: bool

    def flagged(self) -> frozenset[int]:
        return self.n1_zero | self.n0_zero | self.no_information | self.brother_sum_violation

    def __eq__(self, other):
        # over the five fields, so that a report equals a _CountedReport of
        # the same counts; the dataclass __eq__ refuses another class
        if not isinstance(other, RegularityReport):
            return NotImplemented
        return _report_fields(self) == _report_fields(other)


_REPORT_FIELDS = tuple(f.name for f in fields(RegularityReport))
_report_fields = attrgetter(*_REPORT_FIELDS)


class _CountedReport(RegularityReport):
    """A RegularityReport as internal_views_replicates returns it: it holds
    the dataset's aggregated (2 x positions) count row over net.order, and
    the first read of a field fills all five from regularity_by_position;
    later reads are plain attributes.  The estimators' array paths take
    their flags from the count rows (regularity_rows), so a report that
    only travels into their results is never filled."""

    def __init__(self, net: GeneralNetwork, rows: np.ndarray):
        self._net, self._rows = net, rows

    def __getattr__(self, name: str):
        if name not in _REPORT_FIELDS:
            raise AttributeError(name)
        vars(self).update(vars(regularity_by_position(self._net, *self._rows.tolist())))
        return vars(self)[name]

    def __repr__(self):
        # a result prints alike wherever its report was made
        return repr(RegularityReport(*_report_fields(self)))


def internal_views(patterns: PatternTable, net: GeneralNetwork
                   ) -> tuple[InternalView, RegularityReport]:
    """Internal views from a pattern table, plus the regularity report: the
    one-table case of internal_views_replicates."""
    return internal_views_replicates([patterns], net)[0]


def internal_views_replicates(tables: list[PatternTable], net: GeneralNetwork
                              ) -> list[tuple[InternalView, RegularityReport]]:
    """internal_views of each table.  Per tree, the tables' bit matrices
    (PatternTable.bit_matrix) side by side fill the leaf rows of one
    (len(tree.order) x patterns) array; row q is ORed into row parent_pos[q],
    children first, and a table's n_i(1) is its own columns of the row
    dotted with its counts, one einsum per table.  n_i(0) is the parent's
    n(1), or the tree's probes at the root, less n_i(1), for every table at
    once, and the tables' counts add into their rows over net.order.  Bits
    are read by position, so check_fits first rejects a table that does not
    fit net.
    """
    for patterns in tables:
        check_fits(patterns, net)
    bits = [{k: t.bit_matrix(k) for k in t.probes} for t in tables]
    total = np.zeros((len(tables), 2, len(net.order)), np.int64)
    by_tree = [{} for _ in tables]   # per table: tree id -> (2 x positions) over tree.order
    for k in dict.fromkeys(k for t in tables for k in t.counts):
        tree = net.tree_by_id[k]
        up, leaves = tree.parent_pos, list(tree.leaf_pos)
        reps = [r for r, t in enumerate(tables) if k in t.counts]
        ends = list(itertools.accumulate((len(tables[r].counts[k]) for r in reps), initial=0))
        counts = np.fromiter(itertools.chain.from_iterable(
            tables[r].counts[k].values() for r in reps), np.int64, ends[-1])
        seen = np.zeros((len(up), ends[-1]), bool)
        for r, a, b in zip(reps, ends, ends[1:]):
            seen[leaves, a:b] = bits[r][k].T
        for q in range(len(up) - 1, 0, -1):
            seen[up[q]] |= seen[q]
        # per table, n1 above n0; all zeros for a table that does not name tree k
        rows = np.zeros((len(tables), 2, len(up)), np.int64)
        for r, a, b in zip(reps, ends, ends[1:]):
            # einsum casts its bool operand in buffered chunks; seen @ counts
            # would cast the whole of it to int64 first
            rows[r, 0] = np.einsum("qp,p->q", seen[:, a:b], counts[a:b])
        n1 = rows[:, 0]
        rows[:, 1, 0] = [t.probes.get(k, 0) for t in tables] - n1[:, 0]   # the root, position 0
        rows[:, 1, 1:] = n1[:, up[1:]] - n1[:, 1:]
        total[:, :, [net.pos[i] for i in tree.order]] += rows
        for r in reps:
            by_tree[r][k] = rows[r]
    return [(_CountedView(net, {k: trees[k] for k in t.counts}, rows, dict(t.probes)),
             _CountedReport(net, rows))
            for t, trees, rows in zip(tables, by_tree, total)]


def check_fits(patterns: PatternTable, net: GeneralNetwork):
    """Raise DataError unless each tree the table names is one of net's, with
    a probe count and the tree's leaf links, ascending, as receivers."""
    for k in [*patterns.probes, *(k for k in patterns.counts if k not in patterns.probes)]:
        if k not in net.tree_by_id:
            raise DataError(f"unknown tree {k}")
        if k not in patterns.probes:
            raise DataError(f"tree {k}: patterns without a probe count")
        expected = net.tree_by_id[k].leaves
        if patterns.receivers.get(k) != expected:
            raise DataError(f"tree {k}: receivers {patterns.receivers.get(k)} "
                            f"do not match leaf links {expected}")


def regularity_report(view: InternalView, net: GeneralNetwork) -> RegularityReport:
    """regularity_by_position on the aggregated views, over net.order."""
    return regularity_by_position(net, *view.counts(net))


def regularity_by_position(s: GeneralNetwork | MulticastTree, n1: list, n0: list
                           ) -> RegularityReport:
    """The regularity conditions on counts per position of s.order, s a network
    or a tree: brother set s.brother_pos[k] fails when the links feeding it,
    s.feed_pos[k], confirm some passes and at least as many as its brothers."""
    order, at = s.order, n1.__getitem__
    no_info = frozenset([i for i, c1, c0 in zip(order, n1, n0) if c1 + c0 == 0])
    n1_zero = frozenset([i for i, c in zip(order, n1) if c == 0]) - no_info
    n0_zero = frozenset([i for i, c in zip(order, n0) if c == 0]) - no_info
    bad: list[int] = []
    for brothers, feeds in zip(s.brother_pos, s.feed_pos):
        attempts = sum(map(at, feeds))
        if attempts > 0 and attempts >= sum(map(at, brothers)):
            bad += brothers
    brother_bad = frozenset(map(order.__getitem__, bad))
    return RegularityReport(n1_zero, n0_zero, no_info, brother_bad,
                            not (n1_zero or n0_zero or no_info or brother_bad))


def regularity_rows(s: GeneralNetwork | MulticastTree, n1: np.ndarray, n0: np.ndarray
                    ) -> np.ndarray:
    """regularity_by_position(s, n1, n0).flagged() on (datasets x positions)
    count arrays over s.order, s a network or a tree, as a mask: the sums of
    n1 over each set's feeds and brothers (s.padded's feeds and brothers,
    padded with a column of 0) decide which sets fail, and a failed set
    marks its brothers."""
    form, m = s.padded, len(s.order)
    padded = np.concatenate([n1, np.zeros((len(n1), 1), n1.dtype)], axis=1)
    attempts = padded[:, form.feeds].sum(axis=1)
    fails = (attempts > 0) & (attempts >= padded[:, form.brothers].sum(axis=1))
    # each position's set; a root's is the padding column of fails
    at = np.full(m + 1, fails.shape[1])
    at[form.brothers] = np.arange(fails.shape[1])
    fails = np.concatenate([fails, np.zeros((len(n1), 1), bool)], axis=1)
    return (n1 == 0) | (n0 == 0) | fails[:, at[:m]]


def parse_data(text: str, net: GeneralNetwork, check: bool = True) -> PatternTable:
    """Parse the line-oriented observation format.

    Grammar (tokens whitespace separated, '#' starts a comment)::

        data <name>
        probes <tree_id> <n_k>
        receivers <tree_id> : <leaf_link_id> ...
        pattern <tree_id> <bitstring> <count>

    The pattern lines are split and checked in bulk, and the loop below reads
    the other lines; it reads them all when a bulk check fails, so that an
    error names the first bad line.  The table then goes through check_fits
    and PatternTable.validate, unless check is False: internal_views makes
    the same two checks, in that order, as it counts, so a caller that counts
    the table next gets the same errors with one build of its bit matrices.
    """
    others, counts = keyword_block(text, "pattern", 4, _pattern_counts)
    name = None
    probes: dict[int, int] = {}
    receivers: dict[int, tuple[int, ...]] = {}
    for lineno, line, tok in token_lines(others):
        try:
            if tok[0] == "data":
                if len(tok) != 2 or name is not None:
                    raise DataError("exactly one 'data <name>' line required")
                name = tok[1]
            elif tok[0] == "probes":
                if len(tok) != 3:
                    raise DataError("'probes' takes <tree_id> <count>")
                k = int(tok[1])
                if k in probes:
                    raise DataError(f"duplicate probes line for tree {k}")
                probes[k] = int(tok[2])
            elif tok[0] == "receivers":
                if len(tok) < 4 or tok[2] != ":":
                    raise DataError("'receivers' takes <tree_id> : <leaf links>")
                k = int(tok[1])
                if k in receivers:
                    raise DataError(f"duplicate receivers line for tree {k}")
                receivers[k] = tuple(int(x) for x in tok[3:])
            elif tok[0] == "pattern":
                if len(tok) != 4:
                    raise DataError("'pattern' takes <tree_id> <bits> <count>")
                k, bits, c = int(tok[1]), tok[2], int(tok[3])
                tree_counts = counts.setdefault(k, {})
                if bits in tree_counts:
                    raise DataError(f"duplicate pattern {bits} for tree {k}")
                tree_counts[bits] = c
            else:
                raise DataError(f"unknown keyword {tok[0]!r}")
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise DataError(f"line {lineno}: malformed integer in {line!r}") from None
    if name is None:
        raise DataError("missing 'data' line")
    if set(receivers) - set(probes) or set(counts) - set(probes):
        raise DataError("tree mentioned without a 'probes' line")
    for k in probes:
        if k not in receivers:
            raise DataError(f"missing receivers line for tree {k}")
        counts.setdefault(k, {})
    table = PatternTable(name, probes, receivers, counts)
    if check:
        check_fits(table, net)
        table.validate()
    return table


def _pattern_counts(trees: list[str], bits: list[str], cs: list[str]) -> dict:
    """Pattern columns as tree id -> pattern -> count; ValueError for a malformed
    integer, a repeat, or a tree in two runs of lines or spelled two ways."""
    counts, at, ints = {}, 0, {c: int(c) for c in set(cs)}   # few distinct counts
    for k, same in groupby(trees):
        end = at + len(list(same))
        table = dict(zip(bits[at:end], map(ints.__getitem__, cs[at:end])))
        if int(k) in counts or len(table) < end - at:
            raise ValueError(f"tree {k}: a repeated pattern or a second run")
        counts[int(k)] = table
        at = end
    return counts


def serialize_data(patterns: PatternTable) -> str:
    lines = [f"data {patterns.name}"]
    for k in sorted(patterns.probes):
        lines.append(f"probes {k} {patterns.probes[k]}")
        ids = " ".join(str(i) for i in patterns.receivers[k])
        lines.append(f"receivers {k} : {ids}")
    for k in sorted(patterns.counts):
        for bits in sorted(patterns.counts[k]):
            lines.append(f"pattern {k} {bits} {patterns.counts[k][bits]}")
    return "\n".join(lines) + "\n"

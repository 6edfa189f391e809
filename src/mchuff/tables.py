"""Reference tables the CLI regenerates from scratch on every run."""

from __future__ import annotations

from .core import ChannelProfile, Distribution
from .heuristics import METRICS, TraceTable, pruned_search
from .huffman import code_length_nats, huffman_lengths
from .search import optimal_search

#: Two four-mass sources whose optimal two-channel codes achieve the entropy bound.
ENTROPY_EXAMPLES = (
    ("1/6", "1/6", "1/3", "1/3"),
    ("1/6", "1/6", "1/6", "1/2"),
)

#: Five-mass benchmark separating the pruning metrics from each other.
PRUNE_REFERENCE = ("0.13", "0.199", "0.212", "0.217", "0.242")

REFERENCE_CHANNELS = (2, 3)

_METRIC_TITLES = {
    "redundancy": "prune by redundancy",
    "expected_length": "prune by expected codeword length",
    "entropy": "prune by entropy",
    "expected_plus_entropy": "prune by expected length plus entropy",
    "huffman_completion": "suboptimal construction (huffman completion)",
}


def optimal_length_table() -> str:
    """Expected lengths (nats) of the optimal two-channel code next to each single-channel code."""
    profile = ChannelProfile.from_sizes(REFERENCE_CHANNELS)
    lines = ["source\t(2,3)-ary\t2-ary\t3-ary"]
    for masses in ENTROPY_EXAMPLES:
        dist = Distribution.from_masses(masses)
        multi = optimal_search(dist, profile).expected_length
        singles = [code_length_nats(dist, huffman_lengths(dist, q), q) for q in REFERENCE_CHANNELS]
        cells = "\t".join(f"{v:.10f}" for v in (multi, *singles))
        lines.append("{" + ",".join(masses) + "}\t" + cells)
    return "\n".join(lines) + "\n"


def pruning_tables() -> list[tuple[str, TraceTable]]:
    """The five pruning traces on the benchmark five-mass source."""
    profile = ChannelProfile.from_sizes(REFERENCE_CHANNELS)
    dist = Distribution.from_masses(PRUNE_REFERENCE)
    return [(_METRIC_TITLES[metric], pruned_search(dist, profile, metric)[1]) for metric in METRICS]


def render_all() -> str:
    blocks = ["# expected lengths of optimal codes (nats)\n" + optimal_length_table()]
    blocks.extend(f"# {title}\n" + trace.to_tsv() for title, trace in pruning_tables())
    return "\n".join(blocks)

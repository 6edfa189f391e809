"""Multi-channel Huffman codes for channels with unequal alphabet sizes.

Construct optimal (or guaranteed-suboptimal) tree-decodable codes that
split each codeword across several channels, analyze them (entropy,
Kraft sums, local redundancy), and encode/decode symbol streams.
"""

from .codec import (
    CodecError,
    CorruptionError,
    DegenerateCodeError,
    TrailingDataError,
    TruncationError,
    decode,
    encode,
    prefix_free,
)
from .core import (
    NATS_EPS,
    ChannelProfile,
    Distribution,
    description_length,
    dummy_bound,
    entropy,
    kraft_sum,
    tight_example,
)
from .estimator import MultiChannelHuffmanCoder, NotFittedError
from .heuristics import (
    METRICS,
    TraceTable,
    construct,
    pruned_search,
    suboptimal_build,
)
from .huffman import (
    SingleChannelCode,
    build_single_huffman,
    dummy_count,
    huffman_expected_length,
    huffman_merge_sequence,
    trivial_extension,
)
from .search import (
    MergeStep,
    SearchResult,
    optimal_search,
    replay_sequence,
)
from .tree import (
    Codebook,
    DummyLeaf,
    Internal,
    Leaf,
    PrefixFreeViolation,
    RedundancyReport,
    codebook_from_tree,
    expected_length,
    local_redundancy,
    map_classes,
    tree_from_codebook,
    tree_from_obj,
    tree_to_obj,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelProfile",
    "Codebook",
    "CodecError",
    "CorruptionError",
    "DegenerateCodeError",
    "Distribution",
    "DummyLeaf",
    "Internal",
    "Leaf",
    "METRICS",
    "MergeStep",
    "MultiChannelHuffmanCoder",
    "NATS_EPS",
    "NotFittedError",
    "PrefixFreeViolation",
    "RedundancyReport",
    "SearchResult",
    "SingleChannelCode",
    "TraceTable",
    "TrailingDataError",
    "TruncationError",
    "build_single_huffman",
    "codebook_from_tree",
    "construct",
    "decode",
    "description_length",
    "dummy_bound",
    "dummy_count",
    "encode",
    "entropy",
    "expected_length",
    "huffman_expected_length",
    "huffman_merge_sequence",
    "kraft_sum",
    "local_redundancy",
    "map_classes",
    "optimal_search",
    "prefix_free",
    "pruned_search",
    "replay_sequence",
    "suboptimal_build",
    "tight_example",
    "tree_from_codebook",
    "tree_from_obj",
    "tree_to_obj",
    "trivial_extension",
    "validate_tree",
]

"""Detect and repair tokenization inconsistency in extractive seq2seq data.

When a training target is tokenized on its own, its token ids often differ
from how the same text is tokenized inside the input (a missing prefix
space is the classic cause). This package loads byte-level BPE tokenizers
with exact offset tracking, classifies (context, answer) pairs, repairs
training targets by extracting them from the tokenized context, streams
MRQA-format datasets, and scores predictions with SQuAD-style EM/F1 plus
out-of-context detection and paired significance testing.
"""

__version__ = "0.1.0"

from .align import (
    CharSpan,
    TokenSpan,
    codepoint_span_to_byte_span,
    find_subsequence,
    token_slice_for_span,
)
from .bpe import (
    Encoding,
    Tokenizer,
    TokenizerError,
    byte_to_unit,
    decode,
    decode_bytes,
    encode,
    ids_to_pieces,
    load_tokenizer,
    pretokenize,
)
from .consist import (
    ConsistencyStats,
    ConsistencyVerdict,
    FixOutcome,
    analyze_dataset,
    answer_variants,
    check_consistency,
    fix_dataset,
    make_consistent_target,
)
from .metrics import (
    MetricsReport,
    SignificanceResult,
    evaluate,
    exact_match,
    f1,
    hallucination_check,
    normalize_answer,
    paired_significance,
)
from .mrqa import (
    DatasetError,
    DatasetHeader,
    ExtractiveExample,
    PredictionSet,
    SpanMismatchError,
    read_dataset,
    read_predictions,
    write_fixed_dataset,
)

__all__ = [
    "CharSpan",
    "ConsistencyStats",
    "ConsistencyVerdict",
    "DatasetError",
    "DatasetHeader",
    "Encoding",
    "ExtractiveExample",
    "FixOutcome",
    "MetricsReport",
    "PredictionSet",
    "SignificanceResult",
    "SpanMismatchError",
    "TokenSpan",
    "Tokenizer",
    "TokenizerError",
    "analyze_dataset",
    "answer_variants",
    "byte_to_unit",
    "check_consistency",
    "codepoint_span_to_byte_span",
    "decode",
    "decode_bytes",
    "encode",
    "evaluate",
    "exact_match",
    "f1",
    "find_subsequence",
    "fix_dataset",
    "hallucination_check",
    "ids_to_pieces",
    "load_tokenizer",
    "make_consistent_target",
    "normalize_answer",
    "paired_significance",
    "pretokenize",
    "read_dataset",
    "read_predictions",
    "token_slice_for_span",
    "write_fixed_dataset",
]

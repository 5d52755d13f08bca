"""Detect and repair tokenization inconsistency in extractive seq2seq data.

When a training target is tokenized on its own, its token ids often differ
from how the same text is tokenized inside the input (a missing prefix
space is the classic cause). This package loads byte-level BPE tokenizers
with exact offset tracking, classifies (context, answer) pairs, repairs
training targets by extracting them from the tokenized context, streams
MRQA-format datasets, and scores predictions with SQuAD-style EM/F1 plus
out-of-context detection and paired significance testing.

The package root exports what the README quick start needs; everything
else lives in the submodules (``bpe``, ``align``, ``consist``, ``mrqa``,
``metrics``, ``cli``).
"""

__version__ = "0.1.0"

from .bpe import TokenizerError, decode, encode, load_tokenizer
from .consist import check_consistency, make_consistent_target
from .metrics import evaluate
from .mrqa import DatasetError, read_dataset

__all__ = [
    "DatasetError",
    "TokenizerError",
    "check_consistency",
    "decode",
    "encode",
    "evaluate",
    "load_tokenizer",
    "make_consistent_target",
    "read_dataset",
]

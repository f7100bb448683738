"""Corpus and document parsing.

Airphant's Builder unwraps cloud-stored blobs into documents (a
*corpus-document parser*) and extracts keywords from each document (a
*document-word parser*).  Both are user-configurable; this package ships the
defaults used in the paper's experiments: line-delimited corpora and a
whitespace analyzer.
"""

from repro.parsing.corpus import (
    CorpusParser,
    LineDelimitedCorpusParser,
    WholeBlobCorpusParser,
    parse_corpus,
)
from repro.parsing.documents import Document, DocumentRef, DocumentTable, Posting
from repro.parsing.tokenizer import (
    SimpleAnalyzer,
    Tokenizer,
    WhitespaceAnalyzer,
)

__all__ = [
    "CorpusParser",
    "Document",
    "DocumentRef",
    "DocumentTable",
    "LineDelimitedCorpusParser",
    "Posting",
    "SimpleAnalyzer",
    "Tokenizer",
    "WhitespaceAnalyzer",
    "WholeBlobCorpusParser",
    "parse_corpus",
]

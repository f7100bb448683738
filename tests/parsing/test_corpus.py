"""Unit tests for corpus-document parsers.

The critical invariant: every parsed document's (blob, offset, length) must
point at exactly the bytes of its text, because Airphant later fetches
documents directly by those byte ranges.  A line-delimited corpus reads the
same whether parsed document by document or cut into a build's table.
"""

import pytest

from repro.parsing.corpus import (
    LineDelimitedCorpusParser,
    WholeBlobCorpusParser,
    parse_corpus,
)
from repro.parsing.documents import Document, DocumentRef, DocumentTable
from repro.storage.memory import InMemoryObjectStore


@pytest.fixture
def store() -> InMemoryObjectStore:
    return InMemoryObjectStore()


def _documents(table: DocumentTable) -> list[Document]:
    columns = (table.rank.tolist(), table.offset.tolist(), table.length.tolist(), table.texts)
    return [
        Document(DocumentRef(table.names[rank], offset, length), text)
        for rank, offset, length, text in zip(*columns)
    ]


@pytest.fixture(params=["parse", "table"])
def read(request):
    """A line-delimited corpus's documents, as ``parse`` yields them or as
    the rows of the table a build analyses."""

    def read(store, names, parser=None):
        if request.param == "parse":
            return parse_corpus(store, names, parser)
        return _documents((parser or LineDelimitedCorpusParser()).table(store, names))

    return read


class TestLineDelimitedParser:
    def test_one_document_per_line(self, store, read):
        store.put("c.txt", b"first line\nsecond line\nthird line")
        documents = read(store, ["c.txt"])
        assert [doc.text for doc in documents] == ["first line", "second line", "third line"]

    def test_offsets_point_at_exact_bytes(self, store, read):
        data = b"alpha beta\ngamma\ndelta epsilon zeta"
        store.put("c.txt", data)
        documents = read(store, ["c.txt"])
        for document in documents:
            fetched = store.get_range(document.blob, document.offset, document.length)
            assert fetched.decode("utf-8") == document.text

    def test_skips_empty_lines_by_default(self, store, read):
        store.put("c.txt", b"one\n\ntwo\n")
        documents = read(store, ["c.txt"])
        assert [doc.text for doc in documents] == ["one", "two"]

    def test_keeps_empty_lines_when_requested(self, store, read):
        store.put("c.txt", b"one\n\ntwo")
        documents = read(store, ["c.txt"], LineDelimitedCorpusParser(skip_empty=False))
        assert [doc.text for doc in documents] == ["one", "", "two"]

    def test_trailing_newline_does_not_create_document(self, store, read):
        store.put("c.txt", b"only\n")
        assert len(read(store, ["c.txt"])) == 1

    def test_multiple_blobs(self, store, read):
        store.put("a.txt", b"doc a1\ndoc a2")
        store.put("b.txt", b"doc b1")
        documents = read(store, ["a.txt", "b.txt"])
        assert [doc.text for doc in documents] == ["doc a1", "doc a2", "doc b1"]
        assert {doc.blob for doc in documents} == {"a.txt", "b.txt"}

    def test_unicode_content_offsets_are_byte_based(self, store, read):
        data = "naïve résumé\nplain ascii".encode("utf-8")
        store.put("c.txt", data)
        documents = read(store, ["c.txt"])
        assert documents[0].text == "naïve résumé"
        fetched = store.get_range(documents[1].blob, documents[1].offset, documents[1].length)
        assert fetched.decode("utf-8") == "plain ascii"

    def test_empty_blob_produces_no_documents(self, store, read):
        store.put("c.txt", b"")
        assert read(store, ["c.txt"]) == []

    def test_whitespace_only_line_is_a_document(self, store, read):
        store.put("c.txt", b"one\n \t\ntwo")
        assert [doc.text for doc in read(store, ["c.txt"])] == ["one", " \t", "two"]

    def test_undecodable_line_raises(self, store, read):
        store.put("c.txt", b"one\n\xff\ntwo")
        with pytest.raises(UnicodeDecodeError):
            read(store, ["c.txt"])

    def test_table_reads_each_blob_once_in_name_order(self, store):
        store.put("a.txt", b"doc a1\n\ndoc a2\n")
        store.put("b.txt", b"doc b1")
        store.put("c.txt", b"\n\n")
        parser = LineDelimitedCorpusParser()
        table = parser.table(store, ["b.txt", "c.txt", "a.txt", "b.txt"])
        assert table.names == ["a.txt", "b.txt"]  # c.txt holds no document
        assert table.rank.tolist() == [0, 0, 1]
        assert _documents(table) == parse_corpus(store, ["a.txt", "b.txt"])


class TestWholeBlobParser:
    def test_each_blob_is_one_document(self, store):
        store.put("a.txt", b"entire abstract text")
        store.put("b.txt", b"another abstract")
        parser = WholeBlobCorpusParser()
        documents = list(parser.parse(store, ["a.txt", "b.txt"]))
        assert len(documents) == 2
        assert documents[0].text == "entire abstract text"
        assert documents[0].offset == 0
        assert documents[0].length == len(b"entire abstract text")

    def test_range_read_recovers_whole_blob(self, store):
        store.put("a.txt", b"abc def")
        parser = WholeBlobCorpusParser()
        (document,) = parser.parse(store, ["a.txt"])
        assert store.read(document.ref.to_range_read()) == b"abc def"

    def test_whole_blob_parser_table_is_sorted_and_unique(self, store):
        store.put("b.txt", b"second")
        store.put("a.txt", b"first")
        table = WholeBlobCorpusParser().table(store, ["b.txt", "a.txt", "b.txt"])
        assert table.names == ["a.txt", "b.txt"]
        assert table.texts == ["first", "second"]
        assert table.rank.tolist() == [0, 1]
        assert table.length.tolist() == [5, 6]

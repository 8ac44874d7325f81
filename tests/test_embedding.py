from __future__ import annotations

import json
import math
import tracemalloc
from collections import Counter
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cosine_similarity
from ragroute.corpus import TokenizedTexts
from ragroute.embedding import (
    DimensionMismatchError,
    MAX_EMBEDDING_DIM,
    EmbeddingProviderConfig,
    HTTPStatusError,
    MalformedReplyError,
    MockEmbedder,
    RemoteEmbedder,
    TransportError,
    _token_axis,
    make_embedder,
)
from test_setup_oracles import _ORACLE_TOKEN


def naive_bag_cosine(a: str, b: str) -> float:
    """Oracle: plain bag-of-words cosine over lowercased tokens."""
    ca = Counter(t.lower() for t in _ORACLE_TOKEN.findall(a))
    cb = Counter(t.lower() for t in _ORACLE_TOKEN.findall(b))
    dot = sum(ca[t] * cb[t] for t in ca)
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


def loop_embed_batch(texts: list[str], dim: int) -> np.ndarray:
    """Oracle: the mock embedder as a per-token loop, adding 1.0 at a fresh
    SHA-256 axis for every token occurrence into a float64 matrix, then
    normalising each row and rounding the whole matrix to float32."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        for token in _ORACLE_TOKEN.findall(text):
            out[row, _token_axis(token.lower(), dim)] += 1.0
        norm = np.linalg.norm(out[row])
        if norm > 0.0:
            out[row] /= norm
    return out.astype(np.float32)


_WORDS = ["", "  ", "tax", "Tax", "TAX", "café", "CAFÉ", "İstanbul", "Straße", "東京",
          "naïve", "ǅemal", "ﬁne", "x" * 40, ",", "?!", "42", "a_b"]


@st.composite
def embed_texts(draw):
    """Texts built from repeated, mixed-case and non-ASCII words, with empty
    and whitespace-only texts, repeats of whole texts, and arbitrary text."""
    word_texts = st.lists(st.sampled_from(_WORDS), max_size=30).map(" ".join)
    texts = draw(st.lists(st.one_of(word_texts, st.text(max_size=40)), min_size=1, max_size=12))
    return texts + draw(st.lists(st.sampled_from(texts), max_size=3))


class TestCosineSimilarity:
    def test_identity(self):
        v = np.array([0.3, -1.2, 4.0], dtype=np.float32)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_forty_five_degrees(self):
        got = cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            s_ab = cosine_similarity(a, b)
            s_ba = cosine_similarity(b, a)
            assert s_ab == pytest.approx(s_ba, abs=1e-12)
            assert abs(s_ab) <= 1 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=8)
        for s in (0.01, 3.0, 1e6):
            assert cosine_similarity(a, s * a) == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="undefined similarity"):
            cosine_similarity(np.zeros(4), np.ones(4))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_similarity(np.ones(4), np.ones(5))


class TestMockEmbedder:
    def test_deterministic_identical_texts(self):
        emb = MockEmbedder(64)
        vectors = emb.embed_batch(["alpha", "alpha"])
        assert np.array_equal(vectors[0], vectors[1])

    def test_pure_function_of_text_and_dim(self):
        a = MockEmbedder(32).embed_batch(["some shared words here"])[0]
        b = MockEmbedder(32).embed_batch(["some shared words here"])[0]
        assert np.array_equal(a, b)

    def test_disjoint_vocabulary_orthogonal(self):
        emb = MockEmbedder(384)
        vectors = emb.embed_batch(["alpha", "omega"])
        assert cosine_similarity(vectors[0], vectors[1]) == 0.0
        assert naive_bag_cosine("alpha", "omega") == 0.0

    def test_agrees_with_bag_of_words_oracle_on_collision_free_vocab(self):
        emb = MockEmbedder(4096)
        pairs = [
            ("cat cat dog", "cat dog dog"),
            ("tax law court", "tax law"),
            ("one two three", "four five six"),
        ]
        for a, b in pairs:
            got = cosine_similarity(emb.embed_batch([a])[0], emb.embed_batch([b])[0])
            assert got == pytest.approx(naive_bag_cosine(a, b), abs=1e-6)

    def test_shared_vocabulary_scores_high(self):
        emb = MockEmbedder(256)
        v = emb.embed_batch(["cats chase mice", "cats chase birds", "tax forms deadline"])
        assert cosine_similarity(v[0], v[1]) > 0.6 > cosine_similarity(v[0], v[2])

    def test_output_shape_and_dtype(self):
        out = MockEmbedder(16).embed_batch(["a", "b c"])
        assert out.shape == (2, 16) and out.dtype == np.float32

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            MockEmbedder(8).embed_batch([])

    @given(embed_texts(), st.integers(1, 4096))
    def test_same_bytes_as_per_token_loop(self, texts, dim):
        embedder = MockEmbedder(dim)
        want = loop_embed_batch(texts, dim).tobytes()
        assert embedder.embed_batch(texts).tobytes() == want
        # a second batch reads the axes the first one memoised
        assert embedder.embed_batch(texts).tobytes() == want

    def test_peak_memory_no_higher_than_per_token_loop(self):
        texts = [" ".join(f"w{(i * 31 + j) % 997}" for j in range(60)) for i in range(200)]

        def peak(embed) -> int:
            tracemalloc.start()
            try:
                embed()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: MockEmbedder(1024).embed_batch(texts)) <= peak(
            lambda: loop_embed_batch(texts, 1024)
        )


class _EmbeddingHandler(BaseHTTPRequestHandler):
    fail_times = 0
    dim = 8
    seen: list[dict] = []
    auth: list[str | None] = []
    reorder = None  # maps the reply's data items to what is sent, when set

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        type(self).auth.append(self.headers.get("Authorization"))
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        # A text of digits embeds as that number on every axis, so row order shows.
        items = [
            {"embedding": [float(text) if text.isdigit() else 0.1] * type(self).dim}
            for text in body["input"]
        ]
        if type(self).reorder:
            items = type(self).reorder(items)
        raw = json.dumps({"data": items}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_server(serve):
    handler = type("EmbeddingHandler", (_EmbeddingHandler,), {"seen": [], "auth": []})
    _, url = serve(handler)
    return f"{url}/v1/embeddings", handler


class TestRemoteEmbedder:
    def test_happy_path(self, embedding_server):
        url, handler = embedding_server
        cfg = EmbeddingProviderConfig("remote_http", "test-model", 8, endpoint=url)
        out = make_embedder(cfg).embed_batch(["x", "y"])
        assert out.shape == (2, 8)
        assert handler.seen[0]["model"] == "test-model"
        assert handler.seen[0]["input"] == ["x", "y"]

    def test_bearer_header_from_env(self, embedding_server, monkeypatch):
        url, handler = embedding_server
        monkeypatch.setenv("TEST_EMBED_KEY", "sekrit")
        cfg = EmbeddingProviderConfig(
            "remote_http", "m", 8, endpoint=url, api_key_env="TEST_EMBED_KEY"
        )
        RemoteEmbedder(cfg).embed_batch(["x"])
        monkeypatch.delenv("TEST_EMBED_KEY")
        RemoteEmbedder(cfg).embed_batch(["x"])
        assert handler.auth == ["Bearer sekrit", None]

    def test_key_with_line_break_is_refused_before_sending(self, embedding_server, monkeypatch):
        url, handler = embedding_server
        monkeypatch.setenv("TEST_EMBED_KEY", "sek\nrit")
        cfg = EmbeddingProviderConfig(
            "remote_http", "m", 8, endpoint=url, api_key_env="TEST_EMBED_KEY"
        )
        with pytest.raises(HTTPStatusError, match="TEST_EMBED_KEY"):
            RemoteEmbedder(cfg).embed_batch(["x"])
        assert handler.seen == []

    def test_dimension_mismatch_is_hard_error(self, embedding_server):
        url, handler = embedding_server
        handler.dim = 7
        cfg = EmbeddingProviderConfig("remote_http", "test-model", 8, endpoint=url)
        with pytest.raises(DimensionMismatchError):
            make_embedder(cfg).embed_batch(["x"])
        handler.dim = 8

    def test_transport_failure_retries_then_succeeds(self, embedding_server):
        url, handler = embedding_server
        handler.fail_times = 2
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        out = RemoteEmbedder(cfg, max_retries=2, retry_backoff=0.0).embed_batch(["x"])
        assert out.shape == (1, 8)

    def test_transport_failure_exhausts_retries(self, embedding_server):
        url, handler = embedding_server
        handler.fail_times = 10
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        with pytest.raises(TransportError):
            RemoteEmbedder(cfg, max_retries=1, retry_backoff=0.0).embed_batch(["x"])
        handler.fail_times = 0

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            EmbeddingProviderConfig("remote_http", "m", 8)

    def test_dim_is_at_most_the_ceiling(self):
        assert EmbeddingProviderConfig("deterministic_mock", "m", MAX_EMBEDDING_DIM).dim == 65536
        with pytest.raises(ValueError, match="^dim must be at most 65536, not 65537$"):
            EmbeddingProviderConfig("deterministic_mock", "m", MAX_EMBEDDING_DIM + 1)

    @pytest.mark.parametrize(
        "endpoint",
        ["ftp://host/v1", "localhost:8080/v1", "http:///v1", "http://host/v1 embeddings",
         "http://host/v1/caf\u00e9", "http://host/v1?q=\x01"],
    )
    def test_remote_endpoint_must_be_http_url(self, endpoint):
        with pytest.raises(ValueError, match="http"):
            EmbeddingProviderConfig("remote_http", "m", 8, endpoint=endpoint)

    def test_large_input_is_posted_in_batches_and_kept_in_order(self, embedding_server):
        url, handler = embedding_server
        texts = [str(i) for i in range(600)]
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        out = RemoteEmbedder(cfg).embed_batch(texts)
        assert [len(body["input"]) for body in handler.seen] == [256, 256, 88]
        assert [t for body in handler.seen for t in body["input"]] == texts
        assert np.array_equal(out[:, 0], np.arange(600, dtype=np.float32))

    def test_tokenized_texts_post_the_texts_alone(self, embedding_server):
        url, handler = embedding_server
        texts = [str(i) for i in range(300)]
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        out = RemoteEmbedder(cfg).embed_batch(TokenizedTexts(texts))
        assert [body["input"] for body in handler.seen] == [texts[:256], texts[256:]]
        assert np.array_equal(out[:, 0], np.arange(300, dtype=np.float32))

    def test_rows_are_placed_by_reply_index(self, embedding_server):
        url, handler = embedding_server
        handler.reorder = lambda items: [dict(it, index=i) for i, it in enumerate(items)][::-1]
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        out = RemoteEmbedder(cfg).embed_batch(["0", "1", "2"])
        assert out[:, 0].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "indexes", [[0, 0, 1], [1, 2, 3], [0, 1, None], [0, 1, True], [0, 1, "2"]],
        ids=["duplicate", "out-of-range", "missing", "bool", "string"],
    )
    def test_reply_indexes_must_be_a_permutation(self, embedding_server, indexes):
        url, handler = embedding_server
        handler.reorder = lambda items: [
            dict(it, index=i) if i is not None else it for it, i in zip(items, indexes)
        ]
        cfg = EmbeddingProviderConfig("remote_http", "m", 8, endpoint=url)
        with pytest.raises(MalformedReplyError, match="permutation"):
            RemoteEmbedder(cfg).embed_batch(["0", "1", "2"])

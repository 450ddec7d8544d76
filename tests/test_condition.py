import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import protoreg as pr
from protoreg.condition import (EMBED_DIM, load_adapter, load_embedding,
                                save_adapter, save_embedding)
from protoreg.errors import ValidationError

from conftest import number_paths, with_numbers


def _grid(rng, channels=2, n=4):
    return pr.FeatureGrid(rng.random((channels, n, n, n)))


class TestFilm:
    def test_identity_params_bit_exact(self, rng):
        g = _grid(rng)
        p = pr.FilmParams(np.zeros(2), np.zeros(2))
        out = pr.film(g, p)
        assert np.array_equal(out.data, g.data)

    def test_scale_annihilation(self, rng):
        g = _grid(rng)
        p = pr.FilmParams([-1.0, -1.0], [0.5, -2.0])
        out = pr.film(g, p)
        assert np.all(out.data[0] == 0.5)
        assert np.all(out.data[1] == -2.0)

    def test_matches_per_voxel_oracle(self, rng):
        g = _grid(rng)
        p = pr.FilmParams(rng.normal(size=2), rng.normal(size=2))
        out = pr.film(g, p)
        for c in range(2):
            for idx in np.ndindex(4, 4, 4):
                want = g.data[(c,) + idx] * (1.0 + p.gamma[c]) + p.beta[c]
                assert out.data[(c,) + idx] == pytest.approx(want, abs=1e-7)

    def test_linearity_identity(self, rng):
        x = _grid(rng)
        y = _grid(rng)
        p = pr.FilmParams(rng.normal(size=2), rng.normal(size=2))
        a, b = 0.7, -1.3
        lhs = pr.film(pr.FeatureGrid(a * x.data + b * y.data), p).data
        beta = p.beta[:, None, None, None]
        rhs = a * pr.film(x, p).data + b * pr.film(y, p).data - (a + b - 1) * beta
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            pr.film(_grid(rng, channels=3), pr.FilmParams(np.zeros(2), np.zeros(2)))


class TestAdapter:
    def test_zero_embedding_returns_bias_split(self, rng):
        w = pr.AdapterWeights(rng.normal(size=(4, EMBED_DIM)), rng.normal(size=4))
        e = pr.Embedding(np.zeros(EMBED_DIM, dtype=np.float32))
        p = pr.adapter(e, w, 2)
        np.testing.assert_allclose(p.gamma, w.bias[:2])
        np.testing.assert_allclose(p.beta, w.bias[2:])

    def test_zero_weights_give_identity_film(self, rng):
        w = pr.AdapterWeights.identity(2)
        e = pr.Embedding(rng.normal(size=EMBED_DIM).astype(np.float32))
        p = pr.adapter(e, w, 2)
        g = _grid(rng)
        assert np.array_equal(pr.film(g, p).data, g.data)

    def test_matches_matvec_oracle(self, rng):
        w = pr.AdapterWeights(rng.normal(size=(6, EMBED_DIM)), rng.normal(size=6))
        e = pr.Embedding(rng.normal(size=EMBED_DIM).astype(np.float32))
        p = pr.adapter(e, w, 3)
        want = np.array([sum(w.matrix[r, k] * float(e.values[k])
                             for k in range(EMBED_DIM)) + w.bias[r]
                         for r in range(6)])
        np.testing.assert_allclose(np.concatenate([p.gamma, p.beta]), want, atol=1e-6)

    def test_linear_in_embedding_up_to_bias(self, rng):
        w = pr.AdapterWeights(rng.normal(size=(4, EMBED_DIM)), rng.normal(size=4))
        e1 = rng.normal(size=EMBED_DIM).astype(np.float32)
        e2 = rng.normal(size=EMBED_DIM).astype(np.float32)
        p1 = pr.adapter(pr.Embedding(e1), w, 2)
        p2 = pr.adapter(pr.Embedding(e2), w, 2)
        ps = pr.adapter(pr.Embedding(e1 + e2), w, 2)
        np.testing.assert_allclose(
            np.concatenate([ps.gamma, ps.beta]) + w.bias,
            np.concatenate([p1.gamma, p1.beta]) + np.concatenate([p2.gamma, p2.beta]),
            atol=1e-4)

    def test_shape_mismatch_rejected(self, rng):
        w = pr.AdapterWeights.identity(2)
        e = pr.Embedding(np.zeros(EMBED_DIM, dtype=np.float32))
        with pytest.raises(ValidationError):
            pr.adapter(e, w, 3)


class TestArrayInputs:
    @pytest.mark.parametrize("make", [
        lambda: pr.Embedding(["x"] * EMBED_DIM),
        lambda: pr.FilmParams(["a"], [0.0]),
        lambda: pr.FilmParams([0.0], [{}]),
        lambda: pr.FeatureGrid([[[["a"]]]]),
        lambda: pr.FeatureGrid([[[[1.0]], [[1.0, 2.0]]]]),
        lambda: pr.AdapterWeights([["a"] * EMBED_DIM] * 2, [0.0, 0.0]),
    ], ids=["embedding", "film-gamma", "film-beta", "feature-grid", "ragged-feature-grid",
            "adapter"])
    def test_non_numeric_rejected(self, make):
        with pytest.raises(ValidationError, match="array of numbers"):
            make()

    @pytest.mark.parametrize("where", ["matrix", "bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_adapter_non_finite_rejected(self, where, value):
        w = pr.AdapterWeights.identity(1)
        arrays = {"matrix": w.matrix.copy(), "bias": w.bias.copy()}
        arrays[where].flat[1] = value
        with pytest.raises(ValidationError, match="non-finite"):
            pr.AdapterWeights(**arrays)

    @pytest.mark.parametrize("make", [
        lambda: pr.FeatureGrid(np.zeros((0, 4, 4, 4))),
        lambda: pr.FeatureGrid(np.zeros((1, 4, 0, 4))),
        lambda: pr.FilmParams([], []),
        lambda: pr.AdapterWeights(np.zeros((0, EMBED_DIM)), np.zeros(0)),
    ], ids=["feature-grid-channels", "feature-grid-axis", "film", "adapter"])
    def test_zero_length_axes_rejected(self, make):
        with pytest.raises(ValidationError, match="no axis empty"):
            make()

    def test_beta_must_be_shaped_like_gamma(self):
        with pytest.raises(ValidationError, match="FiLM beta"):
            pr.FilmParams([0.0, 0.0], [0.0])


# cosine similarities for a fixed prompt corpus, computed once and frozen
PROMPT_CORPUS = [
    "head and neck, left parotid involvement",
    "thoracic spine metastasis",
    "prescribed 60 Gy in 30 fractions, spare brainstem",
    "pelvis, prostate with seminal vesicles",
]


class TestPseudoEmbedding:
    def test_deterministic(self):
        a = pr.pseudo_embedding("skull base chordoma")
        b = pr.pseudo_embedding("skull base chordoma")
        assert np.array_equal(a.values, b.values)

    def test_unit_norm(self):
        for text in PROMPT_CORPUS:
            v = pr.pseudo_embedding(text).values
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_distinct_prompts_nearly_orthogonal(self):
        vecs = [pr.pseudo_embedding(t).values for t in PROMPT_CORPUS]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert abs(float(np.dot(vecs[i], vecs[j]))) < 0.5

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            pr.pseudo_embedding("")

    def test_mean_embedding(self):
        es = [pr.pseudo_embedding(t) for t in PROMPT_CORPUS[:2]]
        m = pr.mean_embedding(es)
        np.testing.assert_allclose(
            m.values, (es[0].values + es[1].values) / 2.0, atol=1e-7)


class TestSerialization:
    def test_embedding_round_trip(self, tmp_path):
        e = pr.pseudo_embedding("abdomen, liver dome lesion", source="diagnosis")
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        back = load_embedding(path)
        assert back.source == "diagnosis"
        np.testing.assert_allclose(back.values, e.values, atol=0)

    def test_adapter_round_trip(self, tmp_path, rng):
        w = pr.AdapterWeights.random(1, seed=5)
        path = tmp_path / "adapter.json"
        save_adapter(path, w)
        back = load_adapter(path)
        np.testing.assert_allclose(back.matrix, w.matrix)
        np.testing.assert_allclose(back.bias, w.bias)

    def test_wrong_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text('{"source": "anatomy", "dim": 8, "values": [0,0,0,0,0,0,0,0]}')
        with pytest.raises(ValidationError):
            load_embedding(path)


# Valid loader documents and the mutations drawn against them: up to two of
# their numbers replaced by NUMBER_PROBES, then one change of shape, then one
# key dropped, added or retyped
LOADER_DOCS = {
    "embedding": (load_embedding,
                  {"source": "diagnosis", "dim": EMBED_DIM, "values": [0.03125] * EMBED_DIM},
                  {"dim-0": lambda d: d.update(dim=0),
                   "dim-511": lambda d: d.update(dim=511),
                   "dim-float": lambda d: d.update(dim=512.0),
                   "values-511": lambda d: d["values"].pop(),
                   "values-513": lambda d: d["values"].append(0.0),
                   "values-object": lambda d: d.update(values={"0": 0.0}),
                   "values-nested": lambda d: d.update(values=[d["values"]])}),
    "adapter": (load_adapter,
                {"matrix": [[0.01] * EMBED_DIM] * 2, "bias": [0.0, -0.5]},
                {"odd-rows": lambda d: (d["matrix"].append(d["matrix"][0][:]),
                                        d["bias"].append(0.0)),
                 "no-rows": lambda d: d.update(matrix=[], bias=[]),
                 "row-511": lambda d: d["matrix"][0].pop(),
                 "row-513": lambda d: d["matrix"][1].append(0.0),
                 "matrix-object": lambda d: d.update(matrix={"0": d["matrix"][0]}),
                 "matrix-flat": lambda d: d.update(matrix=d["matrix"][0]),
                 "matrix-number": lambda d: d.update(matrix=0.5),
                 "bias-short": lambda d: d["bias"].pop(),
                 "bias-long": lambda d: d["bias"].append(0.0)}),
}
NUMBER_PROBES = [1e300, -1e300, 1e39, math.nan, math.inf, 10 ** 400, True, "0.5", None]
RETYPED = [None, True, "x", 512, 0.5, [], {}]


@pytest.mark.parametrize("kind", sorted(LOADER_DOCS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_loads_or_raises_validation_error(kind, data):
    load, base, shapes = LOADER_DOCS[kind]
    doc = with_numbers(base, data.draw(st.dictionaries(
        st.sampled_from(number_paths(base)), st.sampled_from(NUMBER_PROBES), max_size=2)))
    shape = data.draw(st.sampled_from([None, *sorted(shapes)]))
    if shape is not None:
        shapes[shape](doc)
    op, key, value = data.draw(st.tuples(st.sampled_from(["keep", "drop", "add", "retype"]),
                                         st.sampled_from(sorted(base)),
                                         st.sampled_from(RETYPED)))
    if op == "drop":
        del doc[key]
    elif op != "keep":
        doc["extra" if op == "add" else key] = value
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "doc.json")
        path.write_text(json.dumps(doc))
        try:
            load(path)
        except ValidationError:
            pass

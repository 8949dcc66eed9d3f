"""Output checks made apart from the program.

Every check takes an operation's outputs and returns a list of problems,
empty when the outputs are right.  The references are built from the
positions with scipy's k-d tree and scipy components, or from a property
the method must have; no reference comes from gbmlab code.  The dense
check asks the oracle under test only for the answers it then checks.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

#: a pair this close to a radius may fall on either side of it in float arithmetic
BOUNDARY_TOL = 1e-12
#: node error a dense trial may reach: acceptance criterion 7's level
DENSE_MAX_ERROR = 0.05


def planted_truth(n: int) -> np.ndarray:
    """The planted bipartition: vertices 0..n/2-1 form cluster 0."""
    truth = np.zeros(n, np.int64)
    truth[n // 2:] = 1
    return truth


def circle_dist(pos: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    d = np.abs(pos[u] - pos[v])
    return np.minimum(d, 1.0 - d)


def circle_pairs_within(pos: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairs at wraparound distance <= r, and their distances."""
    pairs = cKDTree(pos[:, None], boxsize=1.0).query_pairs(r, output_type="ndarray")
    return pairs, circle_dist(pos, pairs[:, 0], pairs[:, 1])


def sphere_pairs_within(x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairs at chord distance <= r, and their distances."""
    pairs = cKDTree(x).query_pairs(r, output_type="ndarray")
    return pairs, np.linalg.norm(x[pairs[:, 0]] - x[pairs[:, 1]], axis=1)


def block_model_reference(pairs, d, truth, r_s: float, r_d: float):
    """Block-model edges among `pairs` (all within r_s): same cluster, or within r_d."""
    same = truth[pairs[:, 0]] == truth[pairs[:, 1]]
    keep = same | (d <= r_d)
    return pairs[keep]


def compare_edge_sets(n, edges, reference, dist_fn, radii, what: str) -> list[str]:
    """Edge sets must be equal; a pair within BOUNDARY_TOL of a radius may differ."""
    def keys(e):
        e = np.asarray(e, np.int64).reshape(-1, 2)
        return np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])

    got, want = np.unique(keys(edges)), np.unique(keys(reference))
    problems = []
    if len(got) != len(edges):
        problems.append(f"{what}: {len(edges) - len(got)} duplicate edges")
    diff = np.setxor1d(got, want, assume_unique=True)
    if len(diff) == 0:
        return problems
    u, v = diff // n, diff % n
    d = dist_fn(u, v)
    near = np.zeros(len(diff), bool)
    for r in radii:
        near |= np.abs(d - r) <= BOUNDARY_TOL
    bad = int((~near).sum())
    if bad == 0:
        return problems
    missing = int(np.isin(diff[~near], want).sum())
    return problems + [f"{what}: {missing} reference edges missing, {bad - missing} extra edges "
                       f"(program {len(got)}, reference {len(want)})"]


def labels_up_to_swap(labels, truth, what: str) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != truth.shape:
        return [f"{what}: {labels.shape} labels for {truth.shape} vertices"]
    wrong = min(int((labels != truth).sum()), int((labels != 1 - truth).sum()))
    return [f"{what}: {wrong} vertices wrong up to swap"] if wrong else []


def pair_scores(pred, truth) -> dict:
    """Pair precision, recall, f-score and node error; -1 marks an unassigned vertex.

    Unassigned vertices act as singletons: they form no predicted pair and
    each counts as one node error.
    """
    pred = [int(p) for p in pred]
    truth = [int(t) for t in truth]

    def pairs(sizes):
        return sum(s * (s - 1) // 2 for s in sizes)

    assigned = [(p, t) for p, t in zip(pred, truth) if p != -1]
    tp = pairs(Counter(assigned).values())
    pred_pairs = pairs(Counter(p for p, _ in assigned).values())
    truth_pairs = pairs(Counter(truth).values())
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / truth_pairs if truth_pairs else 0.0
    f = 2 * precision * recall / (precision + recall) if precision and recall else 0.0
    errors = len(pred) - len(assigned)
    for p in {p for p, _ in assigned}:
        members = Counter(t for q, t in assigned if q == p)
        errors += sum(members.values()) - max(members.values())
    return {"precision": precision, "recall": recall, "f_score": f,
            "node_error_rate": errors / len(pred) if pred else 0.0}


def common_neighbor_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """|N(u) & N(v)| for every edge (u, v), from sparse row products in chunks."""
    u, v = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    ends = (np.concatenate([u, v]), np.concatenate([v, u]))
    adj = csr_matrix((np.ones(2 * len(u), np.int32), ends), shape=(n, n))
    out = np.empty(len(u), np.int64)
    for s in range(0, len(u), 50_000):
        rows = adj[u[s:s + 50_000]].multiply(adj[v[s:s + 50_000]])
        out[s:s + 50_000] = np.asarray(rows.sum(axis=1)).ravel()
    return out


def filter_labels(n: int, edges: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The labels the filter defines: 0 on the largest component of the kept
    edges, 1 on the second (equal sizes: smaller least member first), -1 elsewhere."""
    _, comp = components(n, edges[keep])
    sizes = np.bincount(comp)
    least = np.full(len(sizes), n)
    np.minimum.at(least, comp, np.arange(n))
    order = np.lexsort((least, -sizes))
    labels = np.full(n, -1, np.int64)
    for label, c in enumerate(order[:2]):
        labels[comp == c] = label
    return labels


def recovery_labels(labels, truth, edges, keep_fn, what: str, notes: list) -> list[str]:
    """Labels must be the truth up to swap, or else exactly what the filter
    defines on this graph; the second case is a miss of the method, noted."""
    if not labels_up_to_swap(labels, truth, what):
        return []
    n = len(truth)
    edges = np.asarray(edges, np.int64).reshape(-1, 2)
    keep = keep_fn(common_neighbor_counts(n, edges))
    expected = filter_labels(n, edges, keep)
    if not np.array_equal(np.asarray(labels), expected):
        return [f"{what}: labels are neither the truth nor the filter's components "
                f"({int((np.asarray(labels) != expected).sum())} vertices differ)"]
    cross = truth[edges[:, 0]] != truth[edges[:, 1]]
    wrong = min(int((expected != truth).sum()), int((expected != 1 - truth).sum()))
    notes.append(f"{what}: the filter keeps {int((cross & keep).sum())} cross-cluster edges "
                 f"and misses the truth on {wrong} vertices")
    return []


def scores_match(reported: dict, expected: dict, what: str) -> list[str]:
    return [f"{what}: {k} is {reported.get(k)}, expected {v}"
            for k, v in expected.items()
            if not isinstance(reported.get(k), (int, float)) or abs(reported[k] - v) > 1e-12]


def components(n: int, pairs: np.ndarray) -> tuple[int, np.ndarray]:
    m = coo_matrix((np.ones(len(pairs), np.int8), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(m, directed=False)


# ---------------------------------------------------------------------------
# file readers written apart from gbmlab.graph
# ---------------------------------------------------------------------------

def read_graph_file(path) -> tuple[int, np.ndarray, list[str]]:
    """(n, edges, problems); the format is `n m t` then one `u v` per line."""
    with open(path) as fh:
        header = fh.readline().split()
        body = np.array(fh.read().split(), dtype=np.int64)
    n, m, _ = (int(x) for x in header)
    problems = []
    if len(body) != 2 * m:
        problems.append(f"{path}: header says {m} edges, body holds {len(body) / 2}")
        body = body[: len(body) // 2 * 2]
    edges = body.reshape(-1, 2)
    keys = edges[:, 0] * n + edges[:, 1]
    if np.any(edges[:, 0] >= edges[:, 1]) or np.any(np.diff(keys) <= 0):
        problems.append(f"{path}: edges not in sorted u < v form")
    return n, edges, problems


def read_numbers(path, dtype) -> np.ndarray:
    with open(path) as fh:
        return np.array(fh.read().split(), dtype=dtype)


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def check_circle_cli(files: dict, pos: np.ndarray, a: float, b: float, notes: list) -> list[str]:
    """gen -> recover -> eval -> recover-loc outputs against scipy references.

    `files` maps graph, embeddings, truth, recover, pred, eval and loc to
    the paths the pipeline wrote; `pos` is the seeded position draw.
    """
    n = len(pos)
    r_s, r_d = a * (math.log(n) / n), b * (math.log(n) / n)
    truth = planted_truth(n)
    problems = []
    gn, edges, fmt = read_graph_file(files["graph"])
    problems += fmt
    if gn != n:
        return problems + [f"graph file has n = {gn}, expected {n}"]
    if not np.array_equal(read_numbers(files["embeddings"], float), pos):
        problems.append("embeddings file differs from the seeded positions")
    if not np.array_equal(read_numbers(files["truth"], np.int64), truth):
        problems.append("truth file differs from the planted bipartition")

    pairs, d = circle_pairs_within(pos, r_s)
    reference = block_model_reference(pairs, d, truth, r_s, r_d)
    problems += compare_edge_sets(n, edges, reference, lambda u, v: circle_dist(pos, u, v),
                                  (r_s, r_d), "graph file")

    with open(files["recover"]) as fh:
        doc = json.load(fh)
    labels = np.array(doc["labels"], np.int64)
    n_es, e_d = doc["thresholds"]["E_S"] * n, doc["thresholds"]["E_D"]

    def keep(counts):
        return (counts >= n_es) | (counts <= e_d * n) if e_d is not None else counts >= n_es
    problems += recovery_labels(labels, truth, edges, keep, "recover labels", notes)
    pred = read_numbers(files["pred"], np.int64)
    if not np.array_equal(pred, labels):
        problems.append("predicted-label file differs from the recover JSON")
    with open(files["eval"]) as fh:
        reported = json.load(fh)["metrics"]
    problems += scores_match(reported, pair_scores(pred, truth), "eval")

    with open(files["loc"]) as fh:
        loc = json.load(fh)
    if loc["status"] != "ok" or loc["labels"] is None:
        return problems + [f"recover-loc status {loc['status']!r}, expected 'ok'"]
    band = pairs[d >= r_d]
    _, comp = components(n, band)
    sizes = np.bincount(comp)
    assigned = np.array(loc["labels"]) != -1
    if not any(np.array_equal(assigned, comp == c) for c in np.flatnonzero(sizes == sizes.max())):
        problems.append(f"recover-loc assigns {int(assigned.sum())} vertices, "
                        f"not the band graph's largest component ({int(sizes.max())})")
    else:
        problems += labels_up_to_swap(np.array(loc["labels"])[assigned], truth[assigned],
                                      "recover-loc labels")
    return problems


def check_sphere_api(edges, x, labels, scores, r_s: float, r_d: float, e_s: float, e_d: float,
                     notes: list) -> list[str]:
    """gen_gbm_t edges against cKDTree pairs, recovered labels against the truth
    or, failing that, against the filter with thresholds (e_s, e_d) in counts."""
    n = len(x)
    truth = planted_truth(n)
    pairs, d = sphere_pairs_within(x, r_s)
    reference = block_model_reference(pairs, d, truth, r_s, r_d)
    problems = compare_edge_sets(
        n, edges, reference, lambda u, v: np.linalg.norm(x[u] - x[v], axis=1),
        (r_s, r_d), "gen_gbm_t edges")
    problems += recovery_labels(labels, truth, edges, lambda c: (c >= e_s) | (c <= e_d),
                                "recover_gbm_hd labels", notes)
    problems += scores_match(scores, pair_scores(labels, truth), "pair_f_score")
    return problems


def oracle_rule(x, truth, us, vs, r_s: float, r_d: float):
    """(answers, decidable): the block-model rule, and pairs off the radius boundary."""
    d = np.linalg.norm(x[us] - x[vs], axis=-1)
    r = np.where(truth[us] == truth[vs], r_s, r_d)
    return d <= r, np.abs(d - r) > BOUNDARY_TOL


def check_dense(status: str, queries_used: int, n: int, h: int, g: int, labels,
                oracle, x, r_s: float, r_d: float, rng: np.random.Generator) -> list[str]:
    """Two-phase dense recovery: status, exact query accounting, node error,
    and a random sample of the oracle's answers against the rule."""
    problems = []
    if status != "ok":
        problems.append(f"dense status {status!r}, expected 'ok'")
    expected = h * (h - 1) // 2 + (n - h) * 2 * g
    if queries_used != expected:
        problems.append(f"queries_used {queries_used}, expected h(h-1)/2 + (n-h)2g = {expected}")
    truth = planted_truth(n)
    labels = np.asarray(labels)
    wrong = min(int((labels != truth).sum()), int((labels != 1 - truth).sum()))
    if wrong / n > DENSE_MAX_ERROR:
        problems.append(f"node error {wrong / n:.4f} above {DENSE_MAX_ERROR}")

    us = rng.integers(0, n, 4000)
    vs = rng.integers(0, n, 4000)
    ok = us != vs
    us, vs = us[ok], vs[ok]
    want, decidable = oracle_rule(x, truth, us, vs, r_s, r_d)
    got = oracle.query_pairs(us, vs)
    bad = int((decidable & (got != want)).sum())
    if bad:
        problems.append(f"oracle pair answers: {bad} of {len(us)} disagree with the rule")
    sample = rng.choice(n, 300, replace=False)
    iu, iv = np.triu_indices(len(sample), 1)
    want, decidable = oracle_rule(x, truth, sample[iu], sample[iv], r_s, r_d)
    got = oracle.query_block(sample)[iu, iv]
    bad = int((decidable & (got != want)).sum())
    if bad:
        problems.append(f"oracle block answers: {bad} of {len(iu)} disagree with the rule")
    return problems


def check_phase(pos: np.ndarray, a: float, b: float, connected_frac: float,
                isolated_frac: float, mean_components: float) -> list[str]:
    """One rag1 trial: flags and component count of the [b, a] band graph."""
    n = len(pos)
    r1, r2 = b * math.log(n) / n, a * math.log(n) / n
    pairs, d = circle_pairs_within(pos, r2)
    band = pairs[d >= r1]
    ncomp, _ = components(n, band)
    isolated = bool(np.any(np.bincount(band.ravel(), minlength=n) == 0))
    problems = []
    if connected_frac != float(ncomp == 1):
        problems.append(f"connected_frac {connected_frac}, reference graph has {ncomp} components")
    if isolated_frac != float(isolated):
        problems.append(f"isolated_frac {isolated_frac}, reference isolated = {isolated}")
    if mean_components != float(ncomp):
        problems.append(f"mean_components {mean_components}, reference {ncomp}")
    if b == 0.0:
        sp = np.sort(pos)
        gaps = np.append(np.diff(sp), 1.0 - sp[-1] + sp[0])
        if connected_frac != float(int((gaps > r2).sum()) <= 1):
            problems.append(f"connected_frac {connected_frac}, but {int((gaps > r2).sum())} "
                            f"circular spacings exceed r")
    return problems

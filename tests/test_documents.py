"""Every JSON document mlshap writes goes through one typed reader.

The scan mutates each node of small documents written by the CLI (a BR, a CC
and an ML-kNN model, one explanation and the three plot specs): each node is
set to null, true, "x", [], {}, -1, 10^30 and 2.5, or deleted; of a list, its
first, second and last entries are visited. Every mutation that changes a
node's JSON type, or deletes a key, must raise ValueError naming the node's
path, and none may raise anything else.
"""

import json

import pytest

from mlshap import _json
from mlshap.cli import main
from mlshap.multilabel import model_from_doc
from mlshap.shapley import explanation_from_doc, explanation_to_doc
from mlshap.viz import spec_from_json, write_json

from _synth import planted_dataset, write_arff

DELETE = object()
MUTATIONS = [None, True, "x", [], {}, -1, 10**30, 2.5, DELETE]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Path of the ARFF file, and each document kind's written file."""
    root = tmp_path_factory.mktemp("documents")
    data = root / "data.arff"
    write_arff(planted_dataset("docs", 40, 4, 3, seed=3), data)
    common = ("--data", data, "--labels", "3", "--seed", "2")
    files = {}
    for algo, flags in (("br", ["--n-trees", "2", "--max-depth", "3"]),
                        ("cc", ["--n-trees", "2", "--max-depth", "3"]),
                        ("mlknn", ["--k", "3"])):
        assert run("train", *common, "--algo", algo, *flags, "--out", root / algo) == 0
        files[f"model-{algo}"] = root / algo / "model.json"
    for instance in (0, 1, 2):
        assert run("explain", *common, "--model", files["model-br"], "--instance",
                   instance, "--label-ids", "1", "--out", root / "expl") == 0
    explanations = sorted((root / "expl").glob("explanation_*.json"))
    files["explanation"] = explanations[0]
    for kind, inputs in (("importance", explanations), ("summary", explanations),
                         ("force", explanations[:1])):
        assert run("plot", "--kind", kind, "--in", *inputs, "--out", root / "plot") == 0
        files[f"plot-{kind}"] = root / "plot" / f"{kind}.json"
    return data, files


# Document kind -> (the name its messages start with, its loader, and a
# re-dump of what the loader returns).
LOADERS = {
    "model": ("model", model_from_doc, lambda model: _json.dumps(model.to_doc())),
    "explanation": ("explanation", explanation_from_doc,
                    lambda expl: _json.dumps(explanation_to_doc(expl))),
    "plot": ("plot spec", lambda doc: spec_from_json(json.dumps(doc)), write_json),
}
KINDS = ["model-br", "model-cc", "model-mlknn", "explanation", "plot-importance",
         "plot-summary", "plot-force"]


def _nodes(doc, path=()):
    """The path of every node below ``doc``; of a list, only its first,
    second and last entries."""
    if isinstance(doc, dict):
        children = list(doc)
    elif isinstance(doc, list):
        children = sorted({0, 1, len(doc) - 1} & set(range(len(doc))))
    else:
        return
    for key in children:
        yield path + (key,)
        yield from _nodes(doc[key], path + (key,))


def _json_path(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int) and -2**63 <= value < 2**63:
        return "integer"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "number")


def _alternate(path):
    """The JSON type a node's schema takes besides the written one: a model
    may have no feature names, an explanation no instance or label, and a
    forest's max_features is "sqrt" or an integer."""
    if path[-1] == "max_features":
        return "integer"
    return "null" if path in (("feature_names",), ("instance",), ("label",)) else None


def _must_name(path, old, new) -> bool:
    """Whether setting the node at ``path`` from ``old`` to ``new`` breaks
    its schema's JSON type (an integer is a number), or deleting it removes a
    key, so the reader must name it; a list entry deleted shortens the list."""
    if new is DELETE:
        return isinstance(path[-1], str)
    was, now = _json_type(old), _json_type(new)
    return now not in (was, _alternate(path)) and not (was == "number" and now == "integer")


def _mutated(text, path, new):
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _scan(kind, text):
    """Each mutation of ``text``'s document, what loading it raised (or
    None), and the fault found with that, if any."""
    where, load, _ = LOADERS[kind.split("-")[0]]
    doc = json.loads(text)
    for path in _nodes(doc):
        old = doc
        for key in path:
            old = old[key]
        for new in MUTATIONS:
            try:
                load(_mutated(text, path, new))
                err = None
            except Exception as caught:  # anything but ValueError is a fault
                err = caught
            fault = None
            if err is not None and not isinstance(err, ValueError):
                fault = f"raised {type(err).__name__}: {err}"
            elif _must_name(path, old, new):
                start = f"{where}: {_json_path(path)}"
                message = str(err) if err is not None else ""
                if not (message.startswith(start)
                        and message[len(start):len(start) + 1] in (" ", ".", "[")):
                    fault = f"loaded or raised {message!r}, not naming {start!r}"
            yield path, new, err, fault


@pytest.mark.parametrize("kind", KINDS)
def test_every_mutation_raises_value_error_naming_a_mistyped_node(written, kind):
    text = written[1][kind].read_text()
    faults = [f"{_json_path(path)} = {'deleted' if new is DELETE else json.dumps(new)}: "
              f"{fault}" for path, new, _, fault in _scan(kind, text) if fault]
    assert not faults, f"{len(faults)} faults, first: " + "\n".join(faults[:5])


@pytest.mark.parametrize("kind", KINDS)
def test_each_document_reloads_to_its_bytes(written, kind):
    text = written[1][kind].read_text()
    _, load, dump = LOADERS[kind.split("-")[0]]
    assert dump(load(json.loads(text))) == text


@pytest.mark.parametrize("kind", ["model-br", "model-cc", "model-mlknn", "explanation"])
def test_a_refused_document_exits_1_with_an_error_line(written, tmp_path, capsys, kind):
    """Every tenth refused mutation of a model through explain, and every
    refused mutation of the explanation through plot."""
    data, files = written
    text = files[kind].read_text()
    refused = [(path, new, err) for path, new, err, _ in _scan(kind, text)
               if err is not None]
    if kind != "explanation":
        refused = refused[::10]
    assert refused
    bad = tmp_path / "bad.json"
    for path, new, err in refused:
        bad.write_text(json.dumps(_mutated(text, path, new)))
        if kind == "explanation":
            argv = ("plot", "--kind", "force", "--in", bad, "--out", tmp_path / "out")
        else:
            argv = ("explain", "--data", data, "--labels", "3", "--model", bad,
                    "--instance", "0", "--seed", "1", "--out", tmp_path / "out")
        assert run(*argv) == 1, (path, new)
        assert capsys.readouterr().err == f"error: {err}\n"
    assert not (tmp_path / "out").exists()

"""Fuzzed loaders: a mutated instance document or bench config either loads or
fails with the loader's typed error, never with anything else."""

import copy
import json
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lslab import bench, instances
from lslab.bench import ExperimentCell, ExperimentConfig
from lslab.cli import main
from lslab.errors import ConfigError, InstanceFormatError
from lslab.instances import (
    PARAM_TYPES,
    WalkInstance,
    gen_block_instance,
    gen_grid_instance,
    gen_hypercube_instance,
    instance_from_dict,
    instance_to_dict,
)

DOCUMENTS = [
    instance_to_dict(gen_hypercube_instance(4, 2, seed=1)),
    instance_to_dict(gen_grid_instance(4, 2, 1, seed=2)),
    instance_to_dict(gen_block_instance(9, 2, 0.5, seed=3)),
]

CONFIG = {
    "cells": [
        {"family": "hypercube-walk", "algo": "steepest", "n": 6, "m": 3, "trials": 2},
        {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 8, "mode": "faithful"},
        {"family": "grid-walk", "algo": "sample-descend", "n": 4, "d": 2, "m": 1, "samples": 6},
        {"family": "grid-blocks", "algo": "steepest", "n": 9, "d": 2, "r": 0.5, "seed_start": 4},
    ]
}

# what a JSON document can hold, with small numbers so a mutated size stays cheap
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-2.0, 40.0),
    st.sampled_from([float("nan"), float("inf"), 0.5, 1 / 3, 2 / 3]),
    st.text(max_size=4),
    st.sampled_from(["hypercube-walk", "grid-walk", "grid-blocks", "smooth-l1", "steepest"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
# keys a loader knows, so an added key can be a setting the target does not take
KNOWN_KEYS = sorted({f.name for f in fields(ExperimentCell)} | set(PARAM_TYPES) | {"seed"})


@st.composite
def mutated(draw, base):
    """`base` with one to three edits: a value replaced, a key dropped or
    added (short text, a key of the target, or a key some loader knows), or a
    list element replaced, dropped or appended."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        # walk down to a random container inside the document
        holder, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            holder, key = node, draw(st.sampled_from(keys))
            node = node[key]
        target = node if isinstance(node, (dict, list)) else holder
        if target is None:
            doc = draw(VALUES)
            continue
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if isinstance(target, dict):
            keys = list(target)
            if action == "add" or not keys:
                new_key = draw(st.text(max_size=3) | st.sampled_from(keys + KNOWN_KEYS))
                target[new_key] = draw(VALUES)
            elif action == "drop":
                del target[draw(st.sampled_from(keys))]
            else:
                target[draw(st.sampled_from(keys))] = draw(VALUES)
        else:
            if action == "add" or not target:
                target.append(draw(VALUES))
            elif action == "drop":
                del target[draw(st.integers(0, len(target) - 1))]
            else:
                target[draw(st.integers(0, len(target) - 1))] = draw(VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DOCUMENTS).flatmap(mutated))
def test_mutated_instance_loads_or_raises_instance_format_error(doc):
    try:
        inst = instance_from_dict(doc)
    except InstanceFormatError:
        return
    assert isinstance(inst, WalkInstance)


@settings(max_examples=300, deadline=None)
@given(mutated(CONFIG))
def test_mutated_config_loads_or_raises_config_error(doc):
    try:
        config = ExperimentConfig.from_dict(doc)
    except ConfigError:
        return
    assert config.cells


# the keys a cell can hold: ExperimentCell's fields, the size parameters among them
CELL_KEYS = sorted({f.name for f in fields(ExperimentCell)} | set(PARAM_TYPES))


@st.composite
def one_cell_edited(draw):
    """CONFIG with exactly one cell edited once: a key dropped, added or
    replaced, the key drawn from CELL_KEYS and a new value from SCALARS."""
    doc = copy.deepcopy(CONFIG)
    cell = draw(st.sampled_from(doc["cells"]))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "drop":
        del cell[draw(st.sampled_from(sorted(cell)))]
    elif action == "add":
        cell[draw(st.sampled_from([k for k in CELL_KEYS if k not in cell]))] = draw(SCALARS)
    else:
        cell[draw(st.sampled_from(sorted(cell)))] = draw(SCALARS)
    return doc


@settings(max_examples=300, deadline=None)
@given(one_cell_edited())
def test_config_with_one_cell_edited_loads_or_raises_config_error(doc):
    try:
        config = ExperimentConfig.from_dict(doc)
    except ConfigError:
        event("refused")
        return
    event("loaded")
    assert len(config.cells) == len(CONFIG["cells"])


def test_unmutated_documents_load():
    for doc in DOCUMENTS:
        assert instance_to_dict(instance_from_dict(doc)) == doc
    assert len(ExperimentConfig.from_dict(CONFIG).cells) == 4


# sizes of the right type that no family can take, and settings of the right
# type that the cell's family or algorithm does not take
OUT_OF_RANGE_CELLS = {
    "smooth-l1 d=0": {"family": "smooth-l1", "algo": "grid2d-quantum", "n": 8, "d": 0},
    "grid-walk m above d": {"family": "grid-walk", "algo": "steepest", "n": 4, "d": 2, "m": 5},
    "hypercube-walk n=1": {"family": "hypercube-walk", "algo": "steepest", "n": 1, "m": 1},
    "grid-blocks with m": {
        "family": "grid-blocks", "algo": "steepest", "n": 9, "d": 2, "r": 0.5, "m": 4,
    },
    "smooth-l1 with m": {"family": "smooth-l1", "algo": "steepest", "n": 8, "m": 2},
    "smooth-l1 with r": {"family": "smooth-l1", "algo": "steepest", "n": 8, "r": 0.5},
    "steepest faithful": {
        "family": "hypercube-walk", "algo": "steepest", "n": 6, "m": 3, "mode": "faithful",
    },
    "steepest with samples": {
        "family": "hypercube-walk", "algo": "steepest", "n": 6, "m": 3, "samples": 4,
    },
    "grid2d on hypercube-walk n=8": {
        "family": "hypercube-walk", "algo": "grid2d-quantum", "n": 8, "m": 5,
    },
    "sample-descend samples=0": {
        "family": "hypercube-walk", "algo": "sample-descend", "n": 6, "m": 3, "samples": 0,
    },
    "sample-descend samples above |V|": {
        "family": "hypercube-walk", "algo": "sample-descend", "n": 6, "m": 3, "samples": 1000,
    },
    "trials=0": {"family": "smooth-l1", "algo": "steepest", "n": 8, "trials": 0},
    # 2^30 vertices: samples within |V| but over the trajectory limit
    "sample-descend samples above the limit": {
        "family": "smooth-l1", "algo": "sample-descend", "n": 2, "d": 30, "samples": 2**21 + 1,
    },
    # 2^2000 vertices: the default sample count overflowed a float square root
    "smooth-l1 d=2000 default samples": {
        "family": "smooth-l1", "algo": "sample-descend", "n": 2, "d": 2000,
    },
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_CELLS))
def test_out_of_range_sizes_rejected_at_load(tmp_path, monkeypatch, capsys, name):
    def no_trial(cell, seed):
        raise AssertionError("a trial ran before the config was rejected")

    monkeypatch.setattr(bench, "run_trial", no_trial)
    config = {"cells": [CONFIG["cells"][0], OUT_OF_RANGE_CELLS[name]]}
    with pytest.raises(ConfigError, match="^cell 1: "):
        ExperimentConfig.from_dict(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["bench", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cell 1: ")


@pytest.mark.parametrize("doc", DOCUMENTS, ids=lambda doc: doc["family"])
def test_loader_enforces_the_trajectory_budget(tmp_path, monkeypatch, capsys, doc):
    # with the limit lowered below these instances' 8, 8 and 36 points,
    # `lslab gen` refuses their sizes, and a saved file of them must not load
    monkeypatch.setattr(instances, "DEFAULT_TRAJECTORY_LIMIT", 7)
    with pytest.raises(InstanceFormatError, match="exceeds 7"):
        instance_from_dict(doc)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--inst", str(path), "--algo", "steepest"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds 7" in err

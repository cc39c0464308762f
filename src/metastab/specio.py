"""Chain-spec JSON: the single ingestion point for the whole toolkit.

Format::

    {"states": ["a", "b", ...],
     "rates": [["a", "b", 2.0], ...],
     "partition": {"valleys": [["a"], ["b"]], "delta": ["c"]}}

The partition block is optional.  Serialization round-trips rates exactly
(floats are emitted with full precision by ``json``).
"""

import json

from .chain import Chain, Partition, build_chain
from .errors import BadSpec


def chain_from_dict(obj):
    """Build (Chain, Partition-or-None) from a parsed chain-spec dict."""
    if not isinstance(obj, dict):
        raise BadSpec("chain spec must be a JSON object")
    try:
        states = obj["states"]
        rates = obj["rates"]
    except KeyError as exc:
        raise BadSpec(f"chain spec is missing the {exc.args[0]!r} field") from exc
    if not isinstance(states, list) or not isinstance(rates, list):
        raise BadSpec("'states' and 'rates' must be lists")
    triples = []
    for entry in rates:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise BadSpec(f"rate entry {entry!r} is not a [src, dst, rate] triple")
        triples.append((entry[0], entry[1], float(entry[2])))
    chain = build_chain(states, triples)
    partition = None
    if obj.get("partition") is not None:
        partition = partition_from_dict(obj["partition"])
        partition.validate_for(chain)
    return chain, partition


def partition_from_dict(obj) -> Partition:
    if not isinstance(obj, dict) or "valleys" not in obj:
        raise BadSpec("partition must be an object with a 'valleys' list")
    valleys = obj["valleys"]
    if not isinstance(valleys, list) or not all(isinstance(v, list) for v in valleys):
        raise BadSpec("'valleys' must be a list of lists of state labels")
    return Partition(tuple(frozenset(v) for v in valleys),
                     frozenset(obj.get("delta") or ()))


def chain_to_dict(chain: Chain, partition: Partition = None) -> dict:
    obj = {
        "states": list(chain.states),
        "rates": [[a, b, r] for a, b, r in chain.edges()],
    }
    if partition is not None:
        obj["partition"] = partition_to_dict(partition)
    return obj


def partition_to_dict(partition: Partition) -> dict:
    return {
        "valleys": [sorted(v) for v in partition.valleys],
        "delta": sorted(partition.delta),
    }


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise BadSpec(f"invalid JSON in {path}: {exc}") from exc


def load_chain_spec(path):
    return chain_from_dict(_read_json(path))


def load_partition(path) -> Partition:
    return partition_from_dict(_read_json(path))


def dump_chain_spec(chain: Chain, path, partition: Partition = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chain_to_dict(chain, partition), fh, indent=1, sort_keys=True)
        fh.write("\n")

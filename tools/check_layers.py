#!/usr/bin/env python3
"""Layer-DAG checker for the spammass tree.

The architecture is a declared DAG of layers, not a convention:

    util < obs < graph < pagerank < core < synth < pipeline < eval

Each src/<layer>/ may #include only itself and the layers its config entry
names (see LAYER_CONFIG below; the listed order is the linearization of the
declared edges). tools/, bench/, tests/, and examples/ are drivers and may
include any layer. The one sanctioned inversion is util -> obs at runtime:
util::ThreadPool exposes a ThreadPoolHooks function table and obs installs
its instrumentation through it, so observability wraps the thread pool
without util ever including an obs header. That back-edge is declared in
the config (and drawn dashed in the DOT output) precisely so that adding a
literal `#include "obs/..."` to util stays an error.

The checker scans every #include edge in the tree, fails on undeclared
cross-layer edges, unknown layers, and cycles in the declared graph itself,
and can emit a Graphviz diagram of the declared DAG:

    python3 tools/check_layers.py --root .
    python3 tools/check_layers.py --root . --dot docs/layer_dag.dot

Violations print as file:line: [layer-dag] message. Exit status 0 when
clean, 1 on violations, 2 on usage/config errors.

A JSON file with the same shape as LAYER_CONFIG can be supplied via
--config; the tool tests use this to feed intentionally-broken layerings
(e.g. a cyclic declaration) through the checker.
"""

import argparse
import json
import os
import re
import sys

# Directories that are scanned for include edges.
SOURCE_EXTS = (".h", ".cc", ".cpp")
# Intentionally-broken lint/layer fixtures must not fail the real tree.
SKIP_DIRS = {"analysis_fixtures"}

LAYER_CONFIG = {
    # Layer -> layers it may #include (itself is always allowed). obs sits
    # directly above util and below everything else: any layer may
    # instrument itself with metrics/trace spans, while obs itself may
    # reach only util.
    #
    # A unit worth calling out because its placement is a decision, not
    # an accident (the checker enforces it):
    #   * util/mmap_file — the mmap wrapper is plain util; graph/graph_io
    #     builds the zero-copy v2.2 loader on top of it.
    "layers": {
        "util": [],
        "obs": ["util"],
        "graph": ["obs", "util"],
        "pagerank": ["graph", "obs", "util"],
        "core": ["pagerank", "graph", "obs", "util"],
        "synth": ["core", "graph", "obs", "util"],
        "pipeline": ["synth", "core", "pagerank", "graph", "obs", "util"],
        "eval": ["pipeline", "synth", "core", "pagerank", "graph", "obs",
                 "util"],
    },
    # Driver directories: may include every layer (and each other's
    # sibling headers, e.g. bench_common.h), but nothing may include them.
    "top_dirs": ["tools", "bench", "tests", "examples"],
    # Sanctioned inversions that exist at runtime but MUST NOT exist as
    # include edges: [from, to, justification]. Documentation + DOT only.
    "back_edges": [
        ["util", "obs",
         "ThreadPoolHooks function table: obs installs task callbacks into "
         "util::ThreadPool at runtime; no include edge"],
    ],
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def load_config(path):
    if path is None:
        return LAYER_CONFIG
    with open(path, encoding="utf-8") as f:
        config = json.load(f)
    for key in ("layers", "top_dirs"):
        if key not in config:
            raise ValueError(f"config missing required key '{key}'")
    config.setdefault("back_edges", [])
    return config


def validate_config(config):
    """Returns a list of config-level errors (unknown deps, cycles)."""
    errors = []
    layers = config["layers"]
    for layer, deps in layers.items():
        for dep in deps:
            if dep not in layers:
                errors.append(
                    f"config: layer '{layer}' allows unknown layer '{dep}'")
    # Cycle detection over the declared edges (iterative DFS, 3-color).
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {layer: WHITE for layer in layers}

    def visit(start):
        stack = [(start, iter(layers.get(start, ())))]
        color[start] = GRAY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for dep in it:
                if dep not in color:
                    continue  # reported above as unknown
                if color[dep] == GRAY:
                    cycle = path[path.index(dep):] + [dep]
                    errors.append(
                        "config: declared layer graph has a cycle: "
                        + " -> ".join(cycle))
                    continue
                if color[dep] == WHITE:
                    color[dep] = GRAY
                    stack.append((dep, iter(layers.get(dep, ()))))
                    path.append(dep)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()

    for layer in sorted(layers):
        if color[layer] == WHITE:
            visit(layer)
    return errors


def collect_files(root, config):
    """Yields (relpath, layer) where layer is a src layer name or None for
    driver directories."""
    files = []
    tops = [("src", True)] + [(d, False) for d in config["top_dirs"]]
    for top, is_src in tops:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames
                           if not d.startswith(".") and d not in SKIP_DIRS]
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXTS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel = rel.replace(os.sep, "/")
                if is_src:
                    parts = rel.split("/")
                    layer = parts[1] if len(parts) > 2 else None
                    files.append((rel, layer))
                else:
                    files.append((rel, None))
    return sorted(files)


def include_target_layer(root, target, config):
    """Maps an include target like "pagerank/solver.h" to its layer name,
    or None when it is not a project src header (same-directory sibling
    headers and system headers resolve to None)."""
    first = target.split("/", 1)[0]
    if first in config["layers"] and os.path.exists(
            os.path.join(root, "src", target)):
        return first
    return None


def check_tree(root, config):
    violations = []
    layers = config["layers"]
    for relpath, layer in collect_files(root, config):
        in_src = relpath.startswith("src/")
        if in_src and layer is None:
            violations.append((relpath, 1,
                               "file sits directly under src/ outside every "
                               "declared layer"))
            continue
        if in_src and layer not in layers:
            violations.append((relpath, 1,
                               f"directory src/{layer}/ is not a declared "
                               "layer; add it to the layer config with its "
                               "allowed dependencies"))
            continue
        allowed = set(layers.get(layer, ())) | {layer} if in_src else None
        try:
            with open(os.path.join(root, relpath), encoding="utf-8") as f:
                lines = f.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            violations.append((relpath, 0, f"unreadable: {e}"))
            continue
        for i, line in enumerate(lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target_layer = include_target_layer(root, m.group(1), config)
            if target_layer is None:
                continue  # sibling header or non-project include
            if in_src and target_layer not in allowed:
                violations.append(
                    (relpath, i,
                     f"layer '{layer}' must not include layer "
                     f"'{target_layer}' (\"{m.group(1)}\"); declared deps "
                     f"of '{layer}': "
                     f"{sorted(layers.get(layer, ())) or 'none'}"))
    return violations


def emit_dot(config, path):
    layers = config["layers"]
    # Rank layers bottom-up by dependency count so the diagram reads as a
    # stack; Graphviz handles actual placement.
    lines = [
        "// Generated by tools/check_layers.py --dot; do not edit by hand.",
        "digraph spammass_layers {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica", style=filled,'
        ' fillcolor="#eef2f7"];',
        '  edge [fontname="Helvetica", fontsize=10];',
    ]
    for layer in sorted(layers):
        lines.append(f'  "{layer}";')
    drivers = ", ".join(config["top_dirs"])
    lines.append(f'  "drivers\\n({drivers})" [fillcolor="#f7f3e8"];')
    for layer in sorted(layers):
        for dep in sorted(layers[layer]):
            lines.append(f'  "{layer}" -> "{dep}";')
        lines.append(f'  "drivers\\n({drivers})" -> "{layer}"'
                     " [color=gray, arrowsize=0.6];")
    for frm, to, why in config.get("back_edges", []):
        lines.append(f'  "{frm}" -> "{to}" [style=dashed, color="#b0413e",'
                     f' label="runtime hooks", tooltip="{why}"];')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("--config", default=None,
                        help="JSON layer config overriding the built-in DAG")
    parser.add_argument("--dot", default=None, metavar="PATH",
                        help="also write a Graphviz diagram of the declared "
                             "DAG (e.g. docs/layer_dag.dot)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"check_layers: no such directory: {root}", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_layers: bad config: {e}", file=sys.stderr)
        return 2

    config_errors = validate_config(config)
    if config_errors:
        for error in config_errors:
            print(error)
        print(f"check_layers: {len(config_errors)} config error(s)",
              file=sys.stderr)
        return 2

    violations = check_tree(root, config)
    for relpath, line_no, message in violations:
        print(f"{relpath}:{line_no}: [layer-dag] {message}")

    if args.dot:
        emit_dot(config, os.path.join(root, args.dot)
                 if not os.path.isabs(args.dot) else args.dot)

    if violations:
        print(f"check_layers: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"check_layers: {len(config['layers'])} layers, include edges "
          "clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Module boundaries: no module of the package imports another module's
private (``_``-prefixed) names, and no public function or class is dead. A
helper that two modules need is public in one of them. The state dimension
is the plant's, and every other setting the config's: nothing in the package
restates a default of either. Every setting comes from the config or a
command-line flag: no module reads the process environment."""

import ast
import dataclasses
import json
from pathlib import Path

from twinloop import settings
from twinloop.agent import PpoHyperparams
from twinloop.channel import ChannelParams
from twinloop.harness import ExperimentConfig, FleetConfig, PlantConfig
from twinloop.sensing import SensingAgentSpec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twinloop"


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
            f"import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_name_crosses_a_module_boundary():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in private_imports(path)]
    assert not found, "\n".join(found)


def package_imports(path):
    """The package modules that a module imports, at module level or inside
    a function: ``from .x import ...``, ``from . import x`` and their
    absolute ``twinloop`` forms."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "twinloop" and not module.startswith("twinloop."):
                    continue
                module = module[len("twinloop."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("twinloop."))
    return found & modules - {path.stem}


def test_package_imports_form_no_cycle():
    # a cycle forces one of its imports into a function body, where the
    # module's dependencies are no longer read at its top
    graph = {p.stem: package_imports(p) for p in PACKAGE.glob("*.py")
             if p.name != "__init__.py"}
    assert graph["agent"] >= {"loop"}
    cycles = []

    def visit(module, path):
        for after in sorted(graph.get(module, ())):
            if after in path:
                cycles.append(" -> ".join(path[path.index(after):] + [after]))
            else:
                visit(after, path + [after])

    for module in sorted(graph):
        visit(module, [module])
    assert not cycles, "\n".join(sorted(set(cycles)))


def names_used(path, strings=False):
    """Every name a module's code refers to: variables, attributes and
    imported names, and with ``strings`` its string constants too (the
    benchmark names its traced functions by string)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def public_definitions(tree):
    """(name, label, line) of each public function and class of a module,
    and of each public method of its classes, labelled ``Class.method``."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}", item.lineno


def test_every_public_function_and_class_is_used():
    # a function, class or method: used in its own module, named in another
    # module of the package (its re-exports in __init__ do not count), or
    # named by the benchmark
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    used = {p: names_used(p) for p in modules}
    bench = set().union(*(names_used(p, strings=True)
                          for p in (ROOT / "perfbench").glob("*.py")))
    unused = []
    for path in modules:
        elsewhere = set().union(*(used[p] for p in modules if p != path))
        for name, label, line in public_definitions(ast.parse(path.read_text())):
            if name not in used[path] | elsewhere | bench:
                unused.append(f"{path.name}:{line}: {label}")
    assert not unused, "\n".join(unused)


CONFIG_CLASSES = (ExperimentConfig, PlantConfig, FleetConfig, ChannelParams,
                  PpoHyperparams)
# the names whose one default lives in a config dataclass, or nowhere
CONFIG_OWNED = {"state_dim"} | {f.name for cls in CONFIG_CLASSES
                                for f in dataclasses.fields(cls)}


def config_owned_defaults(path):
    """Every parameter of a function, or field of a class other than the
    config dataclasses, that is named after a config-owned setting and is
    given a default value."""
    found = []
    exempt = {cls.__name__ for cls in CONFIG_CLASSES}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{path.name}:{a.lineno}: {a.arg}" for a in defaulted
                      if a.arg in CONFIG_OWNED]
        elif isinstance(node, ast.ClassDef) and node.name not in exempt:
            found += [f"{path.name}:{item.lineno}: {item.target.id}"
                      for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None
                      and getattr(item.target, "id", None) in CONFIG_OWNED]
    return found


def test_no_state_dim_has_a_default():
    # nor any other config-owned setting
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in config_owned_defaults(path)]
    assert not found, "\n".join(found)


def test_no_module_reads_the_process_environment():
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in sorted(names_used(path) & reads)]
    assert not found, "\n".join(found)


# the config sections, and a pinned fleet record, named in messages by its
# position i in fleet.agents
SECTIONS = (("", ExperimentConfig), ("plant.", PlantConfig), ("fleet.", FleetConfig),
            ("fleet.agents[i].", SensingAgentSpec), ("channel.", ChannelParams),
            ("rl.", PpoHyperparams))


def test_every_config_field_declares_its_rule():
    # settings.check reads the rules, so a field without one would go
    # unchecked; a section's fields are checked as a section of their own,
    # and a record's, all required, by the FleetIndex
    missing = [f"{cls.__name__}.{f.name}" for _, cls in SECTIONS
               for f in dataclasses.fields(cls)
               if not isinstance(f.metadata.get("rule"), settings.Rule)]
    assert not missing, "\n".join(missing)
    sections = [f.name for f in dataclasses.fields(ExperimentConfig)
                if f.metadata["rule"] is settings.SECTION]
    assert sections == ["plant", "fleet", "channel", "rl"]
    assert all(f.default is dataclasses.MISSING and f.metadata["rule"].test
               for f in dataclasses.fields(SensingAgentSpec))


def rules_table() -> str:
    """README's table of every setting, its default and its rule, built
    from the rules themselves; a record's fields have no default."""
    rows = ["| setting | default | must be |", "| --- | --- | --- |"]
    for prefix, cls in SECTIONS:
        for f in dataclasses.fields(cls):
            rule = f.metadata["rule"]
            if rule is settings.SECTION:
                continue
            what = rule.what if rule.choices is None else f"one of {list(rule.choices)}"
            if rule.bounds:
                what += f" that must {rule.bounds}"
            default = ("required" if f.default is dataclasses.MISSING
                       else f"`{json.dumps(f.default)}`")
            rows.append(f"| `{prefix}{f.name}` | {default} | {what} |")
    return "\n".join(rows)


def test_readme_lists_every_rule():
    text = (ROOT / "README.md").read_text()
    begin, end = "<!-- rules:begin -->\n", "\n<!-- rules:end -->"
    listed = text[text.index(begin) + len(begin):text.index(end)]
    assert listed == rules_table()

"""Knob audit: every defaulted parameter of a public slnlab function is set by some call.

A parameter that no program, demo, benchmark workload or test ever sets is a constant
under another name: every path that reads it is tested at one value only. The audit
reads the source, matches calls to definitions by name (``f(...)`` and ``x.f(...)``
alike) and counts a parameter as set when a call passes it by keyword, or by position
before any ``*args``. Only seed, budget and gap_tol may stay unset: the certificate
functions take them so that a caller can name what a certificate records.

Each of those defaults is declared once: every gap_tol default is lie.DEFAULT_GAP_TOL
and every sample-budget default contraction.DEFAULT_BUDGET.
"""

import ast
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil

import slnlab
from slnlab.contraction import DEFAULT_BUDGET, MIN_BUDGET
from slnlab.lie import DEFAULT_GAP_TOL
from slnlab.pipeline import PipelineConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = {"seed", "budget", "gap_tol"}


def _sources(*patterns):
    """(module name, syntax tree) of each file the patterns match under the repository root."""
    for pattern in patterns:
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            with open(path) as fh:
                yield os.path.splitext(os.path.basename(path))[0], ast.parse(fh.read(), path)


def _defaulted(fn, drop_first):
    """Names of fn's parameters that have defaults, and its positional parameter names."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if drop_first else 0 :]
    names = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names, positional


def public_functions(sources):
    """(qualified name, simple name, defaulted parameter names, positional parameter names)."""
    out = []
    for module, tree in sources:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((f"{module}.{node.name}", node.name, *_defaulted(node, False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                        qualified = f"{module}.{node.name}.{item.name}"
                        out.append((qualified, item.name, *_defaulted(item, not static)))
    return out


def set_parameters(sources):
    """Simple function name -> (names passed by keyword, largest positional count)."""
    by_name = {}
    for _, tree in sources:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords, count = by_name.setdefault(name, (set(), [0]))
            keywords.update(k.arg for k in node.keywords if k.arg is not None)
            positional = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            count[0] = max(count[0], positional)
    return by_name


def unset_knobs(functions, calls):
    """'module.function(parameter)' for each defaulted parameter outside ALLOWED that no call sets."""
    unset = []
    for qualified, name, defaulted, positional in functions:
        keywords, count = calls.get(name, (set(), [0]))
        for param in defaulted:
            by_position = param in positional and positional.index(param) < count[0]
            if param not in ALLOWED and param not in keywords and not by_position:
                unset.append(f"{qualified}({param})")
    return unset


def test_every_defaulted_parameter_is_set_by_a_call():
    functions = public_functions(_sources("src/slnlab/*.py"))
    calls = set_parameters(_sources("src/**/*.py", "demos/*.py", "perfbench/*.py", "tests/**/*.py"))
    assert unset_knobs(functions, calls) == []


def test_the_audit_sees_a_knob():
    # b is set by position and d by keyword through an attribute, seed is allowed; c, e and x stay unset
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4, seed=0):\n    pass\n"
        "class K:\n    def g(self, x=1):\n        pass\n"
        "f(0, 5)\nobj.f(0, d=1)\nK().g(*args)\n"
    )
    sources = [("m", tree)]
    assert unset_knobs(public_functions(sources), set_parameters(sources)) == ["m.f(c)", "m.f(e)", "m.K.g(x)"]


def defaults_of(name):
    """{module.function: default} over slnlab's public functions with a defaulted parameter name."""
    out = {}
    for info in pkgutil.iter_modules(slnlab.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"slnlab.{info.name}")
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                param = inspect.signature(fn).parameters.get(name)
                if param is not None and param.default is not param.empty:
                    out[f"{info.name}.{attr}"] = param.default
    return out


def field_default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def test_gap_tol_has_one_default():
    defaults = defaults_of("gap_tol")
    assert len(defaults) >= 8
    assert {q for q, d in defaults.items() if d is not DEFAULT_GAP_TOL} == set()
    assert field_default(PipelineConfig, "gap_tol") is DEFAULT_GAP_TOL


def test_sample_budget_has_one_default():
    defaults = defaults_of("budget")
    # its budget counts the probes of a shadow, at the certificates' floor
    assert defaults.pop("contraction.shadow_inclusion_check") is MIN_BUDGET
    assert len(defaults) >= 4
    assert {q for q, d in defaults.items() if d is not DEFAULT_BUDGET} == set()
    assert field_default(PipelineConfig, "sample_budget") is DEFAULT_BUDGET

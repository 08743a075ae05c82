import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import twotower


def test_every_lru_cache_is_bounded():
    # Every functools.lru_cache in the package, at module level or on a
    # class, has a finite maxsize; the source holds as many lru_cache
    # decorators as were found, so none hides in a closure, and no
    # unbounded functools.cache is used.
    found = {}
    for info in pkgutil.iter_modules(twotower.__path__):
        module = importlib.import_module(f"twotower.{info.name}")
        scopes = [vars(module)] + [vars(c) for _, c in inspect.getmembers(module, inspect.isclass)]
        for scope in scopes:
            for obj in scope.values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    found[f"{module.__name__}.{obj.__qualname__}"] = obj.cache_parameters()
    unbounded = [name for name, params in found.items() if not isinstance(params["maxsize"], int)]
    assert not unbounded
    decorators = [
        ast.unparse(dec)
        for path in Path(twotower.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
    ]
    assert not {"cache", "functools.cache"} & set(decorators)
    assert len(found) == sum("lru_cache" in dec for dec in decorators) >= 10

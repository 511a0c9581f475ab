"""The line selection of tests/tools/reach.py on a synthetic module."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

_SOURCE = '''import math

LIMIT = 2 ** 10
square = lambda x: x * x


def f(x,
      y=LIMIT):
    """doc"""
    g = lambda a: a + 1
    return [g(i)
            for i in range(x)]


class C:
    z = 1

    @property
    def p(self):
        if self.z:
            return 3
        raise ValueError("no z")

    def q(self):
        def inner():
            return 4
        return inner()
'''


def test_function_bodies_only():
    # imports, constants, a module-level lambda, def and default-argument
    # lines, the class body and its decorator are module-level code; a
    # docstring starts no line; a comprehension's second line and a
    # nested def are function lines
    assert reach.function_lines(_SOURCE) == {10, 11, 12, 20, 21, 22, 25, 26, 27}


def test_spans():
    assert reach.spans([9, 3, 5, 4, 11, 12]) == "3-5, 9, 11-12"
    assert reach.spans([]) == ""

"""Every public name of the package documents itself.

Each class and function in polarpark.__all__ has a docstring of its own (a
dataclass's generated signature does not count), and so does each public
method, property, cached property, classmethod and staticmethod defined in
the body of each class there.
"""

import dataclasses
import functools
import inspect

import polarpark


def own_doc(obj):
    """The docstring written for a public class or function, or None."""
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    if dataclasses.is_dataclass(obj) and doc and doc.startswith(f"{obj.__name__}("):
        return None  # the signature dataclass writes when the class has no docstring
    return doc


def member_function(member):
    """The function behind a class-body member, or None for anything else (enum members)."""
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, functools.cached_property):
        return member.func
    return member if inspect.isfunction(member) else None


def undocumented():
    """Qualified names of the public names and class-body members without a docstring."""
    missing = []
    for name in polarpark.__all__:
        obj = getattr(polarpark, name)
        if not (inspect.isclass(obj) or inspect.isroutine(obj)):
            continue  # __version__: a string
        if not own_doc(obj):
            missing.append(name)
        for attr, member in vars(obj).items() if inspect.isclass(obj) else ():
            func = member_function(member)
            if not attr.startswith("_") and func is not None and not func.__doc__:
                missing.append(f"{name}.{attr}")
    return missing


def test_every_public_name_has_a_docstring():
    assert undocumented() == []

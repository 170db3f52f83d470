import argparse
import dataclasses
import inspect

from mincodes import cli, code, combinat, field, pointset, spectra

MODULES = (field, combinat, pointset, code, spectra, cli)


def _params(fn) -> int:
    return sum(1 for name in inspect.signature(fn).parameters
               if name not in ("self", "cls"))


def test_option_counts_are_pinned():
    """Pin the size of the package's surface, so that an added option
    shows up as a failing count.

    Counting rule:
    - CLI options: the option strings of every subcommand of
      ``build_parser()``, without ``-h``/``--help``;
    - parameters: those of every public function (name without a leading
      underscore) defined in one of MODULES, a function wrapped by
      ``functools.lru_cache`` included, and of every public method,
      classmethod or staticmethod of a public class defined there, plus
      ``__init__`` where a class writes its own; ``self`` and ``cls`` are
      not counted, and neither are dataclass-generated ``__init__``s or
      properties;
    - dataclass fields: the fields of every public dataclass defined in
      MODULES.

    Update these numbers only on purpose, with a note in CHANGES.md that
    says what was added or removed.
    """
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    options = sum(1 for sub in subs.choices.values() for a in sub._actions
                  for s in a.option_strings if s not in ("-h", "--help"))
    params = fields = 0
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(getattr(obj, "__wrapped__", obj)):
                params += _params(obj)
            elif inspect.isclass(obj):
                own_init = not dataclasses.is_dataclass(obj)
                fields += 0 if own_init else len(dataclasses.fields(obj))
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and not (
                            attr == "__init__" and own_init):
                        continue
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        params += _params(fn)
    assert (options, params, fields) == (22, 162, 21)

"""The one parse routine of configuration sections, each declared as data:
``{key: (kind, default)}``.  ``kind`` is ``float`` (any JSON number, read
as a float), ``int``, ``bool``, ``str``, ``dict``, or ``[kind]`` for a list
of ``kind``; ``default`` is :data:`REQUIRED` for a key that must be given,
and a key whose default is None also takes null.  A JSON boolean is never a
number, and a key the section does not declare is an error."""

__all__ = ["ConfigError", "REQUIRED", "parse_section"]

REQUIRED = object()


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _value(value, kind, path):
    if isinstance(kind, list):
        return [_value(v, kind[0], f"{path}[{k}]")
                for k, v in enumerate(_value(value, list, path))]
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and kind is not bool):
        name = "number" if kind is float else kind.__name__
        raise ConfigError(path, f"expected {name}, got {type(value).__name__}")
    return float(value) if kind is float else value


def parse_section(cfg, spec, path):
    """Every key of ``spec`` read from the mapping ``cfg`` at key path
    ``path``, with its default where absent; :class:`ConfigError` at
    ``<path>.<key>`` for an undeclared, missing or mistyped key."""
    for key in _value(cfg, dict, path):
        if key not in spec:
            raise ConfigError(f"{path}.{key}", "unknown key")
    out = {}
    for key, (kind, default) in spec.items():
        if key not in cfg:
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key}", "missing required key")
            out[key] = default
        elif cfg[key] is None and default is None:
            out[key] = None
        else:
            out[key] = _value(cfg[key], kind, f"{path}.{key}")
    return out

"""User-level currency/ticket manipulation commands (paper section 4.7)."""

from repro._exports import lazy_exports

__all__ = ["COMMANDS", "CommandState", "PermissionError_", "ROOT_USER", "Shell"]

__getattr__ = lazy_exports(globals(), {
    "COMMANDS": ".commands",
    "Shell": ".shell",
    "CommandState": ".state", "PermissionError_": ".state",
    "ROOT_USER": ".state",
})

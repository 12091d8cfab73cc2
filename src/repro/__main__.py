"""``python -m repro <group> <command>``; see :mod:`repro.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

"""``python -m qroute``: the ``qroute`` command line."""
from .cli import main

raise SystemExit(main())

"""``python -m shrinkci``: the command-line interface."""
from shrinkci.cli import main
raise SystemExit(main())

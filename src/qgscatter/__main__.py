"""``python -m qgscatter``: the same command line as the ``qgscatter`` script."""

from .cli import main

if __name__ == "__main__":
    main()

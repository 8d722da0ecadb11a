"""``python -m netmix``: the netmix command line."""
from .cli import main

if __name__ == "__main__":
    main()

"""`python -m apparent.cli`: run the command line as a script."""

import sys

from . import main

sys.exit(main())

"""Test set-up for the benchmark's own tests: ``python3 -m pytest perfbench``
from the root of a checkout."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

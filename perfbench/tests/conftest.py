import os
import sys

# The benchmark's modules import each other as top-level modules, the way
# ``python3 perfbench/run.py`` puts its own directory on the path.
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

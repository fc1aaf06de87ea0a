"""Fixed reference job: measures how fast the host runs Python right now.

``run.py`` runs this file as a subprocess between CLI jobs and scales job
times by its CPU time (see ``run.py``).  It never imports the program under
test, so a change to the program leaves its cost alone.  The work resembles
a CLI job: a fresh interpreter, JSON and Fraction imports, a cubic
max/compare scan over a Fraction matrix and JSON text out.

It prints one line, ``reference <count>``, which ``run.py`` checks.
"""

import json
from fractions import Fraction

N = 28

values = [Fraction(k % 13 + 1, 3 + k % 7) for k in range(N)]
matrix = [[Fraction(0) if i == j else max(a, b) for j, b in enumerate(values)] for i, a in enumerate(values)]
above = 0
for i in range(N):
    row = matrix[i]
    for j in range(N):
        dij = row[j]
        for k in range(N):
            if dij > max(row[k], matrix[k][j]):
                above += 1
text = json.dumps([[str(v) for v in row] for row in matrix])
print(f"reference {above + len(text)}")

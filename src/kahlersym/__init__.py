"""Numerical symmetry-ladder analysis of potential-defined Kahler manifolds.

Build a metric from a Kahler potential by exact jet differentiation, derive
curvature and the symmetry tensors R.S, Q(g,S) and Qc(g,S), estimate the
Deszcz Ricci quotient on holomorphic planes, and classify the manifold
along the chain Ricci-flat, Einstein, Ricci-parallel, Ricci-semisymmetric,
holomorphically Ricci-pseudosymmetric, cross-validated against the
holomorphic-plane characterizations of each rung.

The submodules are the API; the README's "Library use" shows the entry
points.
"""

__version__ = "0.1.0"

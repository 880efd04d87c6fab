"""Numeric kernels for the solver's hot loops.

The solver calls :mod:`repro.kernels.vectorized` — NumPy array programs
over the lookup tables of :mod:`repro.kernels.tables` — always through
the module attribute (``vectorized.assemble_segments(...)``), never a
``from ... import`` of the function.  :mod:`repro.kernels.reference`
holds scalar per-core / per-node loops written to be obviously correct;
it is the oracle the tests (``tests/kernels/``) and
``benchmarks/bench_kernels.py`` compare against.

Both modules expose the same seven functions; ``docs/KERNELS.md`` lists
the contract and which outputs agree bit-for-bit versus within
tolerance.  Inputs are validated by the public call sites
(``DataCenter.node_power_kw``, ``stage2.convert_power_to_pstates``, ...),
so kernels may assume well-formed shapes and ranges.
"""

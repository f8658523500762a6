"""A fork pool that the package no longer calls.

Every scan of the package runs in one process; within the caps and work
budgets of the subset scans, forking and merging cost more than they
save.  This module stays only because bench/layers.py times run_jobs in its
traced probe, and goes when that probe does.  It maps fn over args_list in
order, so any jobs value gives the serial result, falls back to serial
execution when fork is not available, and imports multiprocessing only
when a pool is about to fork.
"""


def run_jobs(fn, args_list, jobs):
    """Map fn over args_list, with a fork pool when jobs > 1."""
    if jobs <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(a) for a in args_list]
    with ctx.Pool(min(jobs, len(args_list))) as pool:
        return pool.map(fn, args_list)

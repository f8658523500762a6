"""Optional process fan-out for the embarrassingly parallel subset scans.

Workers receive contiguous slices of a colexicographic scan and results are
merged in slice order, so any jobs value produces byte-identical output to a
single-process run.  Falls back to serial execution when fork is not
available.  multiprocessing is imported only when a pool is about to fork,
so serial runs never load it.
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

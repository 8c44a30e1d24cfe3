/* Compiled search kernels; behavioural twin of poset_ramsey._kernels.pure.
 *
 * Same two primitives, same visit order, same node accounting: see the pure
 * module for the contract.  Divergence between the twins is a bug.
 *
 * The kernel half works on plain arrays and touches no Python object.  The
 * glue half at the bottom parses the arguments into those arrays and builds
 * the results.  Relation masks and host vertices are 64-bit words, so a
 * target has at most 64 elements.
 *
 * The method differs from the pure twin's: find_copy scans the hosts in
 * ascending order for each target element, and the lex-leader test rescans
 * every permutation table from vertex 0 at each node.  Both prune exactly
 * the nodes the pure twin prunes.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

enum { STATUS_NONE, STATUS_FOUND, STATUS_BUDGET, STATUS_TIMEOUT };

/* ------------------------------------------------------------- kernel */

typedef struct {
    int m;                 /* element count, at most 64 */
    const uint64_t *below; /* below[i]: elements strictly under i */
    const uint64_t *above; /* above[i]: elements strictly over i */
} target;

typedef struct {           /* find_copy's work arrays, one slot per element */
    uint64_t images[64];
    int order[64];
    int64_t cand[64];
} scratch;

/* Can element e take host h, given the images of the assigned elements? */
static int consistent(int m, const uint64_t *below, const uint64_t *above,
                      const uint64_t *images, uint64_t assigned, int e, uint64_t h)
{
    uint64_t be = below[e], ae = above[e];
    for (int f = 0; f < m; f++) {
        if (f == e || !((assigned >> f) & 1))
            continue;
        uint64_t g = images[f];
        if (g == h)
            return 0;
        int below_holds = (g & h) == g;
        int above_holds = (h & g) == h;
        if ((int)((be >> f) & 1) != below_holds || (int)((ae >> f) & 1) != above_holds)
            return 0;
    }
    return 1;
}

/* Fill s->images with the first induced embedding of t into the ascending
 * hosts[0..nhosts) and return 1, else 0.  The anchored element, if
 * anchor_idx >= 0, is fixed at anchor_mask first; the others follow in
 * index order, each trying the hosts in ascending order. */
static int find_copy(const target *t, const uint64_t *hosts, int64_t nhosts,
                     int anchor_idx, uint64_t anchor_mask, scratch *s)
{
    int m = t->m, npos = 0, level = 0;
    /* locals rather than t-> and s-> fields: the search ran about 10%
     * slower through the fields under gcc -O3 */
    const uint64_t *below = t->below, *above = t->above;
    uint64_t *images = s->images, assigned = 0;
    int *order = s->order;
    int64_t *cand = s->cand;
    if (m == 0)
        return 1;
    if (nhosts < m)
        return 0;
    if (anchor_idx >= 0) {
        int64_t lo = 0, hi = nhosts;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (hosts[mid] < anchor_mask)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo >= nhosts || hosts[lo] != anchor_mask)
            return 0;
        images[anchor_idx] = anchor_mask;
        assigned |= UINT64_C(1) << anchor_idx;
    }
    for (int i = 0; i < m; i++)
        if (i != anchor_idx)
            order[npos++] = i;
    if (npos == 0)
        return 1;
    cand[0] = 0;
    while (level >= 0) {
        int e = order[level];
        int64_t c = cand[level];
        while (c < nhosts && !consistent(m, below, above, images, assigned, e, hosts[c]))
            c++;
        if (c < nhosts) {
            images[e] = hosts[c];
            assigned |= UINT64_C(1) << e;
            cand[level] = c + 1;
            if (level == npos - 1)
                return 1;
            cand[++level] = 0;
        } else if (--level >= 0) {
            assigned &= ~(UINT64_C(1) << order[level]);
        }
    }
    return 0;
}

/* Is the color string of vertices 0..v no greater than its image under
 * every table?  Each table is compared from vertex 0 up to the first
 * position whose image is not colored yet. */
static int lex_leader(const int32_t *perms, int nperm, int64_t volume,
                      const int8_t *colors, int64_t v)
{
    for (int t = 0; t < nperm; t++) {
        const int32_t *table = perms + t * volume;
        for (int64_t p = 0; p <= v; p++) {
            int64_t u = table[p];
            if (u > v)
                break;
            if (colors[u] != colors[p]) {
                if (colors[u] < colors[p])
                    return 0;
                break;
            }
        }
    }
    return 1;
}

typedef struct {
    int num_bits;          /* host dimension N: vertices are 0..2^N-1 */
    target p, q;           /* blue and red targets */
    const int32_t *p_tops; /* maximal elements of p */
    int n_tops;
    int q_top;             /* top element of q */
    const int32_t *perms;  /* nperm vertex tables, 2^N entries each */
    int nperm;
    int64_t max_nodes;
    double time_limit;     /* seconds; no deadline when <= 0 */
} search_problem;

static double monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

static void uncolor(int8_t *colors, int64_t v, int64_t *nblue, int64_t *nred)
{
    if (colors[v] == 1)
        --*nblue;
    else
        --*nred;
    colors[v] = -1;
}

/* The depth-first loop of search(), over arrays it has allocated. */
static int run_search(const search_problem *pr, int8_t *colors, int8_t *state,
                      uint64_t *blue, uint64_t *red, uint8_t *witness,
                      int64_t *nodes_out)
{
    scratch s;
    int64_t volume = (int64_t)1 << pr->num_bits;
    int64_t nblue = 0, nred = 0, nodes = 0, v = 0;
    double deadline = pr->time_limit > 0 ? monotonic_seconds() + pr->time_limit : 0.0;
    int status = STATUS_NONE;
    memset(colors, -1, (size_t)volume);
    state[0] = 0;
    while (v >= 0) {
        int c = state[v], ok = 1;
        if (c == 2) {
            if (--v >= 0)
                uncolor(colors, v, &nblue, &nred);
            continue;
        }
        state[v] = (int8_t)(c + 1);
        if (++nodes > pr->max_nodes) {
            status = STATUS_BUDGET;
            break;
        }
        if (pr->time_limit > 0 && nodes % 1024 == 0 && monotonic_seconds() > deadline) {
            status = STATUS_TIMEOUT;
            break;
        }
        colors[v] = (int8_t)c;
        if (c == 1) {
            blue[nblue++] = (uint64_t)v;
            for (int i = 0; i < pr->n_tops && ok; i++)
                ok = !find_copy(&pr->p, blue, nblue, pr->p_tops[i], (uint64_t)v, &s);
        } else {
            red[nred++] = (uint64_t)v;
            ok = !find_copy(&pr->q, red, nred, pr->q_top, (uint64_t)v, &s);
        }
        if (ok && pr->nperm)
            ok = lex_leader(pr->perms, pr->nperm, volume, colors, v);
        if (ok && v < volume - 1) {
            state[++v] = 0;
            continue;
        }
        if (ok && !find_copy(&pr->p, blue, nblue, -1, 0, &s)
                && !find_copy(&pr->q, red, nred, -1, 0, &s)) {
            status = STATUS_FOUND;
            for (int64_t i = 0; i < nblue; i++)
                witness[blue[i] >> 3] |= (uint8_t)(1u << (blue[i] & 7));
            break;
        }
        uncolor(colors, v, &nblue, &nred);
    }
    *nodes_out = nodes;
    return status;
}

/* Exhaustive coloring search: vertices in ascending mask order, red before
 * blue, so the first witness reached is the least color string.  Returns a
 * status and sets the blue vertices' bits in the zeroed witness buffer on
 * STATUS_FOUND; returns -1 when memory runs out. */
static int search(const search_problem *pr, uint8_t *witness, int64_t *nodes)
{
    size_t volume = (size_t)1 << pr->num_bits;
    int8_t *colors = malloc(volume), *state = malloc(volume);
    uint64_t *blue = malloc(volume * sizeof *blue), *red = malloc(volume * sizeof *red);
    int status = -1;
    if (colors && state && blue && red)
        status = run_search(pr, colors, state, blue, red, witness, nodes);
    free(colors);
    free(state);
    free(blue);
    free(red);
    return status;
}

/* --------------------------------------------------------- Python glue */

/* Copy a sequence of ints in [0, 2^64) into a new array (at least one slot). */
static uint64_t *as_masks(PyObject *seq, const char *what, Py_ssize_t *len)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    uint64_t *out = malloc((n > 0 ? (size_t)n : 1) * sizeof *out);
    if (out == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        out[i] = PyLong_AsUnsignedLongLong(items[i]);
        if (out[i] == (uint64_t)-1 && PyErr_Occurred()) {
            free(out);
            out = NULL;
        }
    }
    Py_DECREF(fast);
    if (out != NULL)
        *len = n;
    return out;
}

/* Copy a sequence of ints in [0, limit) into out, which has room for want
 * of them; the sequence must hold exactly want items. */
static int copy_indices(PyObject *seq, const char *what, int64_t limit,
                        int32_t *out, Py_ssize_t want)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(fast) != want) {
        PyErr_Format(PyExc_ValueError, "%s: expected %zd entries", what, want);
        rc = -1;
    }
    for (Py_ssize_t i = 0; rc == 0 && i < want; i++) {
        long long x = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (x == -1 && PyErr_Occurred()) {
            rc = -1;
        } else if (x < 0 || x >= limit) {
            PyErr_Format(PyExc_ValueError, "%s: entry %lld out of range", what, x);
            rc = -1;
        } else {
            out[i] = (int32_t)x;
        }
    }
    Py_DECREF(fast);
    return rc;
}

/* Fill t from the below and above masks, copied into arrays[0] and arrays[1],
 * which the caller frees. */
static int as_target(PyObject *below, PyObject *above, target *t, uint64_t **arrays)
{
    Py_ssize_t m = 0, m_above = 0;
    arrays[0] = as_masks(below, "below masks must be a sequence", &m);
    if (arrays[0] == NULL)
        return -1;
    arrays[1] = as_masks(above, "above masks must be a sequence", &m_above);
    if (arrays[1] == NULL)
        return -1;
    if (m != m_above || m > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "below and above must have equal lengths of at most 64");
        return -1;
    }
    t->m = (int)m;
    t->below = arrays[0];
    t->above = arrays[1];
    return 0;
}

PyDoc_STRVAR(find_induced_copy_doc,
"find_induced_copy($module, /, below, above, hosts, anchor_idx=-1, anchor_mask=0)\n"
"--\n\n"
"First induced embedding of the target into the hosts, or None.");

static PyObject *py_find_induced_copy(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"below", "above", "hosts", "anchor_idx", "anchor_mask", NULL};
    PyObject *below, *above, *hosts_seq, *mask_obj = NULL, *result = NULL;
    int anchor_idx = -1;
    uint64_t *arrays[2] = {NULL, NULL}, *hosts = NULL, anchor_mask = 0;
    Py_ssize_t nhosts = 0;
    target t;
    scratch s;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO|iO", kwlist, &below, &above,
                                     &hosts_seq, &anchor_idx, &mask_obj))
        return NULL;
    if (as_target(below, above, &t, arrays) < 0)
        goto done;
    hosts = as_masks(hosts_seq, "hosts must be a sequence", &nhosts);
    if (hosts == NULL)
        goto done;
    if (t.m == 0) {
        result = PyList_New(0);
        goto done;
    }
    if (anchor_idx >= t.m) {
        PyErr_SetString(PyExc_ValueError, "anchor index outside the target");
        goto done;
    }
    if (anchor_idx >= 0 && mask_obj != NULL) {
        anchor_mask = PyLong_AsUnsignedLongLong(mask_obj);
        if (anchor_mask == (uint64_t)-1 && PyErr_Occurred())
            goto done;
    }
    if (!find_copy(&t, hosts, nhosts, anchor_idx, anchor_mask, &s)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyList_New(t.m);
    for (int i = 0; result != NULL && i < t.m; i++) {
        PyObject *image = PyLong_FromUnsignedLongLong(s.images[i]);
        if (image == NULL)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, i, image);
    }
done:
    free(arrays[0]);
    free(arrays[1]);
    free(hosts);
    return result;
}

PyDoc_STRVAR(witness_search_doc,
"witness_search($module, /, num_bits, p_below, p_above, p_max_elems, q_below,\n"
"               q_above, q_top, perm_tables, max_nodes, time_limit)\n"
"--\n\n"
"Exhaustive coloring search: (status, witness bits, nodes visited).");

static PyObject *py_witness_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"num_bits", "p_below", "p_above", "p_max_elems", "q_below",
                             "q_above", "q_top", "perm_tables", "max_nodes",
                             "time_limit", NULL};
    PyObject *p_below, *p_above, *p_tops_seq, *q_below, *q_above, *tables;
    PyObject *result = NULL;
    uint64_t *p_arrays[2] = {NULL, NULL}, *q_arrays[2] = {NULL, NULL};
    int32_t *p_tops = NULL, *perms = NULL;
    uint8_t *witness = NULL;
    search_problem pr;
    long long max_nodes;
    int64_t nodes = 0;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOOOOiOLd", kwlist, &pr.num_bits,
                                     &p_below, &p_above, &p_tops_seq, &q_below, &q_above,
                                     &pr.q_top, &tables, &max_nodes, &pr.time_limit))
        return NULL;
    pr.max_nodes = max_nodes;
    /* vertices and table entries are int32 */
    if (pr.num_bits < 0 || pr.num_bits > 30) {
        PyErr_SetString(PyExc_ValueError, "num_bits must lie in 0..30");
        return NULL;
    }
    int64_t volume = (int64_t)1 << pr.num_bits;
    if (as_target(p_below, p_above, &pr.p, p_arrays) < 0
            || as_target(q_below, q_above, &pr.q, q_arrays) < 0)
        goto done;
    if (pr.q.m > 0 && (pr.q_top < 0 || pr.q_top >= pr.q.m)) {
        PyErr_SetString(PyExc_ValueError, "q_top outside the red target");
        goto done;
    }
    Py_ssize_t n_tops = PySequence_Size(p_tops_seq);
    Py_ssize_t nperm = PySequence_Size(tables);
    if (n_tops < 0 || nperm < 0)
        goto done;
    p_tops = malloc((n_tops > 0 ? (size_t)n_tops : 1) * sizeof *p_tops);
    perms = malloc((nperm > 0 ? (size_t)(nperm * volume) : 1) * sizeof *perms);
    witness = calloc((size_t)(volume + 7) / 8, 1);
    if (p_tops == NULL || perms == NULL || witness == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (copy_indices(p_tops_seq, "p_max_elems", pr.p.m, p_tops, n_tops) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < nperm; i++) {
        PyObject *table = PySequence_GetItem(tables, i);
        int rc = table == NULL ? -1
                 : copy_indices(table, "perm_tables", volume, perms + i * volume, volume);
        Py_XDECREF(table);
        if (rc < 0)
            goto done;
    }
    pr.p_tops = p_tops;
    pr.n_tops = (int)n_tops;
    pr.perms = perms;
    pr.nperm = (int)nperm;
    int status = search(&pr, witness, &nodes);
    if (status < 0) {
        PyErr_NoMemory();
        goto done;
    }
    PyObject *bits = PyObject_CallMethod((PyObject *)&PyLong_Type, "from_bytes", "y#s",
                                         (const char *)witness,
                                         (Py_ssize_t)((volume + 7) / 8), "little");
    if (bits != NULL)
        result = Py_BuildValue("(iNL)", status, bits, (long long)nodes);
done:
    free(p_arrays[0]);
    free(p_arrays[1]);
    free(q_arrays[0]);
    free(q_arrays[1]);
    free(p_tops);
    free(perms);
    free(witness);
    return result;
}

static PyMethodDef ckernels_methods[] = {
    {"find_induced_copy", (PyCFunction)(void (*)(void))py_find_induced_copy,
     METH_VARARGS | METH_KEYWORDS, find_induced_copy_doc},
    {"witness_search", (PyCFunction)(void (*)(void))py_witness_search,
     METH_VARARGS | METH_KEYWORDS, witness_search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "Compiled search kernels; behavioural twin of poset_ramsey._kernels.pure.",
    .m_size = -1,
    .m_methods = ckernels_methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    PyObject *module = PyModule_Create(&ckernels_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BACKEND_NAME", "compiled") < 0
            || PyModule_AddIntConstant(module, "STATUS_NONE", STATUS_NONE) < 0
            || PyModule_AddIntConstant(module, "STATUS_FOUND", STATUS_FOUND) < 0
            || PyModule_AddIntConstant(module, "STATUS_BUDGET", STATUS_BUDGET) < 0
            || PyModule_AddIntConstant(module, "STATUS_TIMEOUT", STATUS_TIMEOUT) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

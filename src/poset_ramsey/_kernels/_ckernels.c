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
 * As in the pure twin, red and blue share one path, indexed by color c:
 * t[c] is the target that color c avoids (red Q, blue P), and a newly
 * colored vertex gets one anchored check per set bit of anchors[c], the
 * mask that search.anchor_mask picks once in Python.  The lex-leader test
 * is the pure twin's too, on the plan that pure.lex_groups builds once in
 * Python: the sorted tables as a prefix tree of groups, whose columns and
 * tables the glue reads in place.  Each group keeps a pointer, waits in the
 * bucket of the vertex that decides its next position, and is undone from a
 * trail.  Here the buckets are linked lists threaded through the trail,
 * which works as a stack because moves are undone last first.
 *
 * The method differs from the pure twin's in the embedding search:
 * find_copy scans the hosts in ascending order for each target element,
 * and the anchored checks have no memo.  Both give the answers the pure
 * twin gives.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* the pure twin's STATUS_* values, which _kernels exports for both twins */
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

/* The lex-leader plan that pure.lex_groups builds, read in place: the
 * permutation tables as a prefix tree of groups.  Group 0 holds every
 * table, and the members of a group agree on every position before its
 * split, so they advance as one up to there.  The subgroups kid[g] ..
 * kid[g] + nkids[g] - 1 part g's members by their entries from its split
 * on, and start there; a leaf's split is the table length. */
typedef struct {
    const int32_t *start, *split, *kid, *nkids;
    const uint8_t **table; /* table[g]: the least member's table */
    int32_t ngroups;
    int64_t moves;         /* most trail entries live at once (see load_plan) */
} lex_plan;

typedef struct {           /* a group that moved on: a trail and bucket entry */
    int32_t group, old;    /* the group and its old pointer */
    int64_t next;          /* the next entry in the same bucket, or -1 */
} lex_move;

typedef struct {           /* the lex-leader test's state in one search */
    int32_t *ptr;          /* ptr[g]: positions before it compare equal */
    int64_t *head;         /* head[w]: the latest move waiting on vertex w */
    int64_t *mark;         /* mark[v]: the trail's length before v's moves */
    int32_t *todo;         /* the groups left to advance in one pass */
    lex_move *trail;       /* every live move, in order */
    int64_t top;
} lex_state;

/* Advance the groups waiting on vertex v, and the subgroups of each group
 * that compares equal up to its split.  Returns 0 when a permuted coloring
 * is less, which prunes v; undo_moves() then takes back the moves so far. */
static int advance_groups(const lex_plan *lp, lex_state *st, const int8_t *colors, int64_t v)
{
    int32_t ntodo = 0;
    st->mark[v] = st->top;
    for (int64_t k = st->head[v]; k >= 0; k = st->trail[k].next)
        st->todo[ntodo++] = st->trail[k].group;
    while (ntodo > 0) {
        int32_t g = st->todo[--ntodo];
        const uint8_t *table = lp->table[g];
        int64_t end = lp->split[g], stop = end <= v ? end : v + 1, p = st->ptr[g], u = 0, w;
        while (p < stop && (u = table[p]) <= v && colors[u] == colors[p])
            p++;
        if (p < stop) {
            if (u > v)
                w = u;
            else if (colors[u] < colors[p])
                return 0;
            else
                continue;  /* the permuted coloring is greater for good: g retires */
        } else if (p < end) {
            u = table[p];
            w = p > u ? p : u;
        } else {           /* equal up to the split: the subgroups take over */
            for (int32_t i = 0; i < lp->nkids[g]; i++)
                st->todo[ntodo++] = lp->kid[g] + i;
            continue;
        }
        st->trail[st->top] = (lex_move){g, st->ptr[g], st->head[w]};
        st->head[w] = st->top++;
        st->ptr[g] = (int32_t)p;
    }
    return 1;
}

/* Take back the moves made when vertex v was colored, last first. */
static void undo_moves(const lex_plan *lp, lex_state *st, int64_t v)
{
    while (st->top > st->mark[v]) {
        const lex_move *m = &st->trail[--st->top];
        int64_t q = st->ptr[m->group], u = lp->table[m->group][q];
        st->head[q > u ? q : u] = m->next;
        st->ptr[m->group] = m->old;
    }
}

typedef struct {
    int num_bits;          /* host dimension N: vertices are 0..2^N-1 */
    target t[2];           /* the targets red and blue avoid: Q and P */
    uint64_t anchors[2];   /* the elements of t[c] that checks anchor at */
    const lex_plan *lex;   /* the lex-leader plan, or NULL */
    int64_t max_nodes;
    double time_limit;     /* seconds; no deadline when <= 0 */
} search_problem;

static double monotonic_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The depth-first loop of search(), over arrays it has allocated: hosts[c]
 * lists the color-c vertices in ascending order. */
static int run_search(const search_problem *pr, int8_t *colors, int8_t *state,
                      uint64_t *hosts[2], lex_state *st, uint8_t *witness,
                      int64_t *nodes_out)
{
    scratch s;
    const lex_plan *lex = pr->lex;
    int64_t volume = (int64_t)1 << pr->num_bits;
    int64_t count[2] = {0, 0}, nodes = 0, v = 0;
    double deadline = pr->time_limit > 0 ? monotonic_seconds() + pr->time_limit : 0.0;
    int status = STATUS_NONE;
    if (lex) {
        /* group 0 holds every table and waits on the vertex that decides
         * position 0 for its first table, the least there; if the tables
         * differ at position 0, its subgroups take over at that vertex */
        for (int32_t g = 0; g < lex->ngroups; g++)
            st->ptr[g] = lex->start[g];
        for (int64_t w = 0; w < volume; w++)
            st->head[w] = -1;
        st->trail[0] = (lex_move){0, 0, -1};
        st->head[lex->table[0][0]] = 0;
        st->top = 1;
    }
    state[0] = 0;
    while (v >= 0) {
        int c = state[v], ok = 1;
        if (c == 2) {
            if (--v >= 0) {
                count[colors[v]]--;
                if (lex)
                    undo_moves(lex, st, v);
            }
            continue;
        }
        state[v] = (int8_t)(c + 1);
        if (++nodes > pr->max_nodes) {
            status = STATUS_BUDGET;
            break;
        }
        if (pr->time_limit > 0 && monotonic_seconds() > deadline) {
            status = STATUS_TIMEOUT;
            break;
        }
        colors[v] = (int8_t)c;
        hosts[c][count[c]++] = (uint64_t)v;
        for (int e = 0; e < pr->t[c].m && ok; e++)
            if ((pr->anchors[c] >> e) & 1)
                ok = !find_copy(&pr->t[c], hosts[c], count[c], e, (uint64_t)v, &s);
        if (ok && lex && !advance_groups(lex, st, colors, v)) {
            undo_moves(lex, st, v);
            ok = 0;
        }
        if (!ok) {
            count[c]--;
        } else if (v < volume - 1) {
            state[++v] = 0;
        } else {
            status = STATUS_FOUND;
            for (int64_t i = 0; i < count[1]; i++)
                witness[hosts[1][i] >> 3] |= (uint8_t)(1u << (hosts[1][i] & 7));
            break;
        }
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
    const lex_plan *lex = pr->lex;
    int8_t *colors = malloc(volume), *state = malloc(volume);
    uint64_t *hosts[2] = {malloc(volume * sizeof **hosts), malloc(volume * sizeof **hosts)};
    lex_state st = {NULL, NULL, NULL, NULL, NULL, 0};
    int status = -1;
    if (lex) {
        st.ptr = malloc((size_t)lex->ngroups * sizeof *st.ptr);
        st.head = malloc(volume * sizeof *st.head);
        st.mark = malloc(volume * sizeof *st.mark);
        st.todo = malloc((size_t)lex->ngroups * sizeof *st.todo);
        st.trail = malloc((size_t)lex->moves * sizeof *st.trail);
    }
    if (colors && state && hosts[0] && hosts[1]
            && (!lex || (st.ptr && st.head && st.mark && st.todo && st.trail)))
        status = run_search(pr, colors, state, hosts, &st, witness, nodes);
    free(colors);
    free(state);
    free(hosts[0]);
    free(hosts[1]);
    free(st.ptr);
    free(st.head);
    free(st.mark);
    free(st.todo);
    free(st.trail);
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

/* The lex-leader plan's columns and tables, read in place. */
typedef struct {
    Py_buffer views[4];    /* start, split, kid, nkids */
    int nviews;
    PyObject *tables;      /* the plan's tables, as a fast sequence */
    lex_plan lex;
} plan_view;

static void release_plan(plan_view *pv)
{
    for (int i = 0; i < pv->nviews; i++)
        PyBuffer_Release(&pv->views[i]);
    Py_XDECREF(pv->tables);
    free(pv->lex.table);
}

static int bad_plan(const char *why)
{
    PyErr_Format(PyExc_ValueError, "lex plan: %s", why);
    return -1;
}

/* Point pv->lex at the columns and tables of a LexPlan tuple (start, split,
 * kid, nkids, table), and check every entry the search indexes: 0 <= start
 * <= split <= 2^N, each group's kids follow it and the kids of the groups
 * before it, and start where it splits, and the table entries from start to
 * split, and entry 0 of group 0's table, lie below 2^N.  The caller
 * releases pv, also on failure. */
static int load_plan(PyObject *plan, int64_t volume, plan_view *pv)
{
    lex_plan *lp = &pv->lex;
    const int32_t **cols[4] = {&lp->start, &lp->split, &lp->kid, &lp->nkids};
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 5) {
        PyErr_SetString(PyExc_TypeError, "lex plan must be a LexPlan or None");
        return -1;
    }
    for (int i = 0; i < 4; i++) {
        Py_buffer *view = &pv->views[i];
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(plan, i), view, PyBUF_FORMAT | PyBUF_ND) < 0)
            return -1;
        pv->nviews++;
        if (strcmp(view->format, "i") != 0 || view->itemsize != sizeof(int32_t)
                || view->len != pv->views[0].len)
            return bad_plan("columns must be array('i') of one length");
        *cols[i] = view->buf;
    }
    Py_ssize_t n = pv->views[0].len / (Py_ssize_t)sizeof(int32_t);
    pv->tables = PySequence_Fast(PyTuple_GET_ITEM(plan, 4), "lex plan tables must be a sequence");
    if (pv->tables == NULL)
        return -1;
    if (n < 1 || n > INT32_MAX || PySequence_Fast_GET_SIZE(pv->tables) != n)
        return bad_plan("needs one table per group");
    lp->ngroups = (int32_t)n;
    lp->table = malloc((size_t)n * sizeof *lp->table);
    if (lp->table == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* the live moves of a group leave its pointer at distinct positions
     * from its start to below its split, so it has at most split - start
     * of them; group 0 takes one more entry at the start */
    lp->moves = 1;
    int64_t next = 1;      /* the first group that no kid span holds yet */
    for (int32_t g = 0; g < n; g++) {
        int64_t start = lp->start[g], split = lp->split[g], kid = lp->kid[g], nkids = lp->nkids[g];
        PyObject *table = PySequence_Fast_GET_ITEM(pv->tables, g);
        if (!PyBytes_Check(table) || PyBytes_GET_SIZE(table) != volume)
            return bad_plan("tables must be bytes of length 2^num_bits");
        lp->table[g] = (const uint8_t *)PyBytes_AS_STRING(table);
        if (start < 0 || start > split || split > volume || (g == 0 && start != 0))
            return bad_plan("group 0 must start at 0, and start <= split <= 2^num_bits");
        if (nkids < 0 || (nkids > 0 && (kid != next || kid <= g || kid + nkids > n)))
            return bad_plan("kid spans must follow their parents in order");
        for (int64_t k = kid; k < kid + nkids; k++)
            if (lp->start[k] != split)
                return bad_plan("kids must start at their parent's split");
        for (int64_t p = start; p < split; p++)
            if (lp->table[g][p] >= volume)
                return bad_plan("table entry past 2^num_bits");
        next += nkids;
        lp->moves += split - start;
    }
    /* group 0 first waits on the vertex that decides its position 0 */
    if (lp->table[0][0] >= volume)
        return bad_plan("table entry past 2^num_bits");
    if (lp->moves > PY_SSIZE_T_MAX / (int64_t)sizeof(lex_move)) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(witness_search_doc,
"witness_search($module, /, num_bits, p_below, p_above, p_anchors, q_below,\n"
"               q_above, q_anchors, lex_plan, max_nodes, time_limit)\n"
"--\n\n"
"Exhaustive coloring search: (status, witness bits, nodes visited).");

static PyObject *py_witness_search(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"num_bits", "p_below", "p_above", "p_anchors", "q_below",
                             "q_above", "q_anchors", "lex_plan", "max_nodes", "time_limit",
                             NULL};
    PyObject *p_below, *p_above, *p_anchors, *q_below, *q_above, *q_anchors, *plan;
    PyObject *result = NULL;
    uint64_t *arrays[2][2] = {{NULL, NULL}, {NULL, NULL}};
    plan_view pv = {0};
    uint8_t *witness = NULL;
    search_problem pr;
    long long max_nodes;
    int64_t nodes = 0;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOOOOOOOLd", kwlist, &pr.num_bits,
                                     &p_below, &p_above, &p_anchors, &q_below, &q_above,
                                     &q_anchors, &plan, &max_nodes, &pr.time_limit))
        return NULL;
    pr.max_nodes = max_nodes;
    /* vertices are int32 */
    if (pr.num_bits < 0 || pr.num_bits > 30) {
        PyErr_SetString(PyExc_ValueError, "num_bits must lie in 0..30");
        return NULL;
    }
    int64_t volume = (int64_t)1 << pr.num_bits;
    if (as_target(q_below, q_above, &pr.t[0], arrays[0]) < 0
            || as_target(p_below, p_above, &pr.t[1], arrays[1]) < 0)
        goto done;
    PyObject *anchors[2] = {q_anchors, p_anchors};
    for (int c = 0; c < 2; c++) {
        pr.anchors[c] = PyLong_AsUnsignedLongLong(anchors[c]);
        if (pr.anchors[c] == (uint64_t)-1 && PyErr_Occurred())
            goto done;
        if (pr.t[c].m < 64 && pr.anchors[c] >> pr.t[c].m) {
            PyErr_SetString(PyExc_ValueError, "anchor mask has a bit past its target");
            goto done;
        }
    }
    pr.lex = NULL;
    if (plan != Py_None) {
        if (load_plan(plan, volume, &pv) < 0)
            goto done;
        pr.lex = &pv.lex;
    }
    witness = calloc((size_t)(volume + 7) / 8, 1);
    if (witness == NULL) {
        PyErr_NoMemory();
        goto done;
    }
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
    free(arrays[0][0]);
    free(arrays[0][1]);
    free(arrays[1][0]);
    free(arrays[1][1]);
    release_plan(&pv);
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
    if (PyModule_AddStringConstant(module, "BACKEND_NAME", "compiled") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

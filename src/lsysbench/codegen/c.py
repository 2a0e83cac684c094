"""C backend: emits C99 sources that replay a program's trace and checksum.

Layout:
  single file mode -> runtime.h, main.c
  split file mode  -> runtime.h, main.c (runtime + entry + main), f<id>.c per callee

The runtime functions do the logging themselves, so each statement in a
generated function is a single call. Sources compile warning-free under
`-std=c99 -pedantic -Wall -Wextra -Werror` at -O0 through -O3.

Object lifetimes are static: callees borrow their parameters, and only the
call that allocated an object frees it, when the binding's block exits. A
caller's binding block always outlives the call, so no reference counts are
kept. Ids grow, and every object a call borrows was allocated before the call
began, so `ls_free` tells the two apart by id alone: it frees an object whose
id is at least the call's `base`, the next id when the call began. For
lifetimes a heap kind supplies only its structs, `ls_alloc` and `ls_destroy`;
`ls_new` and `ls_free` are shared.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List

from .base import BraceSyntax, Source

_HEADER_COMMON = """\
#ifndef LS_RUNTIME_H
#define LS_RUNTIME_H

#include <stddef.h>
#include <stdint.h>
"""

_OBJ_ARRAY = """\
typedef struct {
    uint64_t id;
    int64_t *vals;
    size_t len;
    size_t cap;
} ls_obj;

"""

_OBJ_SORTED = """\
typedef struct ls_node {
    int64_t val;
    struct ls_node *next;
} ls_node;

typedef struct {
    uint64_t id;
    ls_node *head;
    size_t len;
} ls_obj;

"""

# % (the parameter element type, as in _KINDS; a heap kind's base member)
_HEADER_PARAMS = """\
typedef struct {
    %s*items;
    size_t len;
    size_t consumed;
%s} ls_params;
"""

_HEADER_PROTOS = """\
extern int ls_debug;
extern uint64_t ls_checksum;
extern uint64_t ls_next_id;

void ls_log(int opcode, const char *kind, uint64_t var, int64_t val, int64_t res);
ls_params ls_make_params(%s*items, size_t len);
"""

_PROTOS_HEAP = """\
/* Callees borrow their parameters. ls_new hands out the next unconsumed
 * parameter or allocates a new object. Ids grow, so an object the current
 * call allocated is one whose id is at least data->base, the next id when
 * the call began; ls_free frees only such an object. */
ls_obj *ls_new(ls_params *data);
void ls_free(ls_params *data, ls_obj *obj);
void ls_insert(ls_obj *obj, int64_t val);
void ls_remove(ls_obj *obj, int64_t val);
void ls_contains(ls_obj *obj, int64_t val);
"""

_PROTOS_SCALAR = """\
int64_t ls_new(ls_params *data, uint64_t slot);
void ls_insert(int64_t *var, uint64_t slot, int64_t val);
void ls_remove(int64_t *var, uint64_t slot, int64_t val);
void ls_contains(int64_t var, uint64_t slot, int64_t val);
"""

_IMPL_COMMON = """\
void ls_log(int opcode, const char *kind, uint64_t var, int64_t val, int64_t res)
{
    uint64_t event = ((uint64_t)opcode << 48) + (var << 32)
        + (((uint64_t)val & UINT64_C(0xFFFF)) << 16) + ((uint64_t)res & UINT64_C(0xFFFF));
    ls_checksum = ls_checksum * UINT64_C(1099511628211) + event;
    if (ls_debug) {
        printf("OP kind=%s var=%" PRIu64 " val=%" PRId64 " res=%" PRId64 "\\n",
               kind, var, val, res);
    }
}
"""

# % (the parameter element type; a heap kind's base assignment)
_IMPL_PARAMS = """\
ls_params ls_make_params(%s*items, size_t len)
{
    ls_params params;
    params.items = items;
    params.len = len;
    params.consumed = 0;
%s    return params;
}
"""

# Shared by the heap kinds; each defines ls_alloc and ls_destroy before it.
_IMPL_HEAP = """\
ls_obj *ls_new(ls_params *data)
{
    ls_obj *obj;
    int made = data->consumed >= data->len;
    if (made) {
        obj = ls_alloc();
    } else {
        obj = data->items[data->consumed];
        data->consumed++;
    }
    ls_log(1, "new", obj->id, 0, made);
    return obj;
}

void ls_free(ls_params *data, ls_obj *obj)
{
    if (obj->id >= data->base) {
        ls_destroy(obj);
    }
}
"""

_IMPL_ARRAY = """\
static void ls_grow(ls_obj *obj)
{
    if (obj->len == obj->cap) {
        obj->cap = obj->cap ? obj->cap * 2 : 8;
        obj->vals = (int64_t *)realloc(obj->vals, obj->cap * sizeof(int64_t));
        if (!obj->vals) {
            abort();
        }
    }
}

static ls_obj *ls_alloc(void)
{
    ls_obj *obj = (ls_obj *)malloc(sizeof(ls_obj));
    if (!obj) {
        abort();
    }
    obj->id = ls_next_id++;
    obj->vals = NULL;
    obj->len = 0;
    obj->cap = 0;
    return obj;
}

static void ls_destroy(ls_obj *obj)
{
    free(obj->vals);
    free(obj);
}

void ls_insert(ls_obj *obj, int64_t val)
{
    ls_grow(obj);
    obj->vals[obj->len] = val;
    obj->len++;
    ls_log(2, "insert", obj->id, val, (int64_t)obj->len);
}

void ls_remove(ls_obj *obj, int64_t val)
{
    size_t i;
    for (i = 0; i < obj->len; i++) {
        if (obj->vals[i] == val) {
            memmove(obj->vals + i, obj->vals + i + 1,
                    (obj->len - i - 1) * sizeof(int64_t));
            obj->len--;
            ls_log(3, "remove", obj->id, val, 1);
            return;
        }
    }
    ls_log(3, "remove", obj->id, val, 0);
}

void ls_contains(ls_obj *obj, int64_t val)
{
    size_t i;
    for (i = 0; i < obj->len; i++) {
        if (obj->vals[i] == val) {
            ls_log(4, "contains", obj->id, val, 1);
            return;
        }
    }
    ls_log(4, "contains", obj->id, val, 0);
}
"""

_IMPL_SORTED = """\
static ls_obj *ls_alloc(void)
{
    ls_obj *obj = (ls_obj *)malloc(sizeof(ls_obj));
    if (!obj) {
        abort();
    }
    obj->id = ls_next_id++;
    obj->head = NULL;
    obj->len = 0;
    return obj;
}

static void ls_destroy(ls_obj *obj)
{
    ls_node *node = obj->head;
    while (node) {
        ls_node *next = node->next;
        free(node);
        node = next;
    }
    free(obj);
}

void ls_insert(ls_obj *obj, int64_t val)
{
    ls_node *node = (ls_node *)malloc(sizeof(ls_node));
    ls_node **link = &obj->head;
    if (!node) {
        abort();
    }
    node->val = val;
    while (*link && (*link)->val < val) {
        link = &(*link)->next;
    }
    node->next = *link;
    *link = node;
    obj->len++;
    ls_log(2, "insert", obj->id, val, (int64_t)obj->len);
}

void ls_remove(ls_obj *obj, int64_t val)
{
    ls_node **link = &obj->head;
    while (*link && (*link)->val < val) {
        link = &(*link)->next;
    }
    if (*link && (*link)->val == val) {
        ls_node *hit = *link;
        *link = hit->next;
        free(hit);
        obj->len--;
        ls_log(3, "remove", obj->id, val, 1);
        return;
    }
    ls_log(3, "remove", obj->id, val, 0);
}

void ls_contains(ls_obj *obj, int64_t val)
{
    const ls_node *node = obj->head;
    while (node && node->val < val) {
        node = node->next;
    }
    ls_log(4, "contains", obj->id, val, (node && node->val == val) ? 1 : 0);
}
"""

_IMPL_SCALAR = """\
int64_t ls_new(ls_params *data, uint64_t slot)
{
    int64_t v = 0;
    int64_t res = 1;
    if (data->consumed < data->len) {
        v = data->items[data->consumed];
        data->consumed++;
        res = 0;
    }
    ls_log(1, "new", slot, 0, res);
    return v;
}

void ls_insert(int64_t *var, uint64_t slot, int64_t val)
{
    *var += 1;
    ls_log(2, "insert", slot, val, *var);
}

void ls_remove(int64_t *var, uint64_t slot, int64_t val)
{
    ls_log(3, "remove", slot, val, (*var != 0) ? 1 : 0);
    *var -= 1;
}

void ls_contains(int64_t var, uint64_t slot, int64_t val)
{
    ls_log(4, "contains", slot, val, (var == 0) ? 1 : 0);
}
"""


_Kind = namedtuple("_Kind", "param structs protos impl")

# A kind's parameter element type, object structs, prototypes and runtime.
_KINDS = {
    "array": _Kind("ls_obj *", _OBJ_ARRAY, _PROTOS_HEAP,
                   _IMPL_ARRAY + "\n" + _IMPL_HEAP),
    "sortedList": _Kind("ls_obj *", _OBJ_SORTED, _PROTOS_HEAP,
                        _IMPL_SORTED + "\n" + _IMPL_HEAP),
    "scalar": _Kind("int64_t ", "", _PROTOS_SCALAR, _IMPL_SCALAR),
}


_MAIN_INCLUDES = """\
#include <errno.h>
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "runtime.h"
"""


class CBackend(BraceSyntax):
    """Generates C99 sources."""

    extension = "c"
    kinds = _KINDS
    banner = "/* Generated benchmark program: {n} function(s), {kind} container. */"
    file_head = '#include "runtime.h"\n'
    main_fn = """\
int main(int argc, char **argv)
{
    uint64_t path = 0;
    int got_path = 0;
    char *end;
    int i;
    for (i = 1; i < argc; i++) {
        if (strcmp(argv[i], "--debug") == 0) {
            ls_debug = 1;
        } else if (!got_path) {
            errno = 0;
            path = strtoull(argv[i], &end, 10);
            if (argv[i][0] < '0' || argv[i][0] > '9' || *end != '\\0' || errno == ERANGE) {
                fprintf(stderr, "%s\\n", argv[i]);
                return 2;
            }
            got_path = 1;
        } else {
            fprintf(stderr, "%s\\n", argv[i]);
            return 2;
        }
    }
    f%d(ls_make_params(NULL, 0), path);
    printf("CHECKSUM %%" PRIu64 "\\n", ls_checksum);
    return 0;
}
"""
    indent = "    "
    fn_head = "void f%d(ls_params data, uint64_t path)\n{\n    (void)data;\n    (void)path;"
    if_head = "if ((path >> %d) & 1) {"
    loop_head = "for (uint64_t ls_i%d = 0; ls_i%d < UINT64_C(%d); ls_i%d++) {"

    def headers(self, banner: str) -> List[Source]:
        protos = "".join(
            "void f%d(ls_params data, uint64_t path);\n" % fn.id for fn in self.program.functions
        )
        base = "" if self.scalar else "    uint64_t base;\n"
        text = "\n".join([
            banner,
            _HEADER_COMMON,
            self.parts.structs + _HEADER_PARAMS % (self.parts.param, base),
            _HEADER_PROTOS % self.parts.param + self.parts.protos,
            protos,
            "#endif /* LS_RUNTIME_H */\n",
        ])
        return [("runtime.h", lambda sink: sink(text))]

    def runtime(self) -> str:
        base = "" if self.scalar else "    params.base = ls_next_id;\n"
        return "\n".join([
            _MAIN_INCLUDES,
            "int ls_debug = 0;\n"
            "uint64_t ls_checksum = UINT64_C(14695981039346656037);\n"
            "uint64_t ls_next_id = UINT64_C(1);\n",
            _IMPL_COMMON,
            _IMPL_PARAMS % (self.parts.param, base),
            self.parts.impl,
        ])

    def new(self, slot):
        if self.scalar:
            return ["int64_t v%d = ls_new(&data, UINT64_C(%d));" % (slot, slot),
                    "(void)v%d;" % slot]
        return ["ls_obj *v%d = ls_new(&data);" % slot]

    def free(self, slot):
        if self.scalar:
            return []
        return ["ls_free(&data, v%d);" % slot]

    def op(self, name, slot, value):
        if self.scalar:
            var = ("v%d" if name == "contains" else "&v%d") % slot
            return ["ls_%s(%s, UINT64_C(%d), INT64_C(%d));" % (name, var, slot, value)]
        return ["ls_%s(v%d, INT64_C(%d));" % (name, slot, value)]

    def call(self, callee, slots):
        if not slots:
            return ["f%d(ls_make_params(NULL, 0), path);" % callee]
        args = ", ".join("v%d" % s for s in slots)
        return ["{",
                self.indent + "%sls_args[] = { %s };" % (self.parts.param, args),
                self.indent + "f%d(ls_make_params(ls_args, %d), path);" % (callee, len(slots)),
                "}"]

/* Generated benchmark program: 3 function(s), array container. */
#ifndef LS_RUNTIME_H
#define LS_RUNTIME_H

#include <stddef.h>
#include <stdint.h>

typedef struct {
    uint64_t id;
    int64_t *vals;
    size_t len;
    size_t cap;
} ls_obj;

typedef struct {
    ls_obj **items;
    size_t len;
    size_t consumed;
    uint64_t base;
} ls_params;

extern int ls_debug;
extern uint64_t ls_checksum;
extern uint64_t ls_next_id;

void ls_log(int opcode, const char *kind, uint64_t var, int64_t val, int64_t res);
ls_params ls_make_params(ls_obj **items, size_t len);
/* Callees borrow their parameters. ls_new hands out the next unconsumed
 * parameter or allocates a new object. Ids grow, so an object the current
 * call allocated is one whose id is at least data->base, the next id when
 * the call began; ls_free frees only such an object. */
ls_obj *ls_new(ls_params *data);
void ls_free(ls_params *data, ls_obj *obj);
void ls_insert(ls_obj *obj, int64_t val);
void ls_remove(ls_obj *obj, int64_t val);
void ls_contains(ls_obj *obj, int64_t val);

void f0(ls_params data, uint64_t path);
void f1(ls_params data, uint64_t path);
void f2(ls_params data, uint64_t path);

#endif /* LS_RUNTIME_H */

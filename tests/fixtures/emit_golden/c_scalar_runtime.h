/* Generated benchmark program: 3 function(s), scalar container. */
#ifndef LS_RUNTIME_H
#define LS_RUNTIME_H

#include <stddef.h>
#include <stdint.h>

typedef struct {
    int64_t *items;
    size_t len;
    size_t consumed;
} ls_params;

extern int ls_debug;
extern uint64_t ls_checksum;
extern uint64_t ls_next_id;

void ls_log(int opcode, const char *kind, uint64_t var, int64_t val, int64_t res);
ls_params ls_make_params(int64_t *items, size_t len);
int64_t ls_new(ls_params *data, uint64_t slot);
void ls_insert(int64_t *var, uint64_t slot, int64_t val);
void ls_remove(int64_t *var, uint64_t slot, int64_t val);
void ls_contains(int64_t var, uint64_t slot, int64_t val);

void f0(ls_params data, uint64_t path);
void f1(ls_params data, uint64_t path);
void f2(ls_params data, uint64_t path);

#endif /* LS_RUNTIME_H */

/* Generated benchmark program: 3 function(s), scalar container. */
#include <errno.h>
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "runtime.h"

int ls_debug = 0;
uint64_t ls_checksum = UINT64_C(14695981039346656037);
uint64_t ls_next_id = UINT64_C(1);

void ls_log(int opcode, const char *kind, uint64_t var, int64_t val, int64_t res)
{
    uint64_t event = ((uint64_t)opcode << 48) + (var << 32)
        + (((uint64_t)val & UINT64_C(0xFFFF)) << 16) + ((uint64_t)res & UINT64_C(0xFFFF));
    ls_checksum = ls_checksum * UINT64_C(1099511628211) + event;
    if (ls_debug) {
        printf("OP kind=%s var=%" PRIu64 " val=%" PRId64 " res=%" PRId64 "\n",
               kind, var, val, res);
    }
}

ls_params ls_make_params(int64_t *items, size_t len)
{
    ls_params params;
    params.items = items;
    params.len = len;
    params.consumed = 0;
    return params;
}

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

void f0(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    int64_t v0 = ls_new(&data, UINT64_C(0));
    (void)v0;
    ls_insert(&v0, UINT64_C(0), INT64_C(430));
}

void f1(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    int64_t v0 = ls_new(&data, UINT64_C(0));
    (void)v0;
    ls_contains(v0, UINT64_C(0), INT64_C(840));
    if ((path >> 0) & 1) {
        ls_insert(&v0, UINT64_C(0), INT64_C(12));
    }
}

void f2(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    f0(ls_make_params(NULL, 0), path);
    int64_t v0 = ls_new(&data, UINT64_C(0));
    (void)v0;
    ls_insert(&v0, UINT64_C(0), INT64_C(895));
    ls_remove(&v0, UINT64_C(0), INT64_C(264));
    ls_contains(v0, UINT64_C(0), INT64_C(513));
    {
        int64_t v1 = ls_new(&data, UINT64_C(1));
        (void)v1;
        ls_contains(v0, UINT64_C(0), INT64_C(700));
    }
    if ((path >> 0) & 1) {
        int64_t v2 = ls_new(&data, UINT64_C(2));
        (void)v2;
        ls_insert(&v2, UINT64_C(2), INT64_C(475));
        for (uint64_t ls_i2 = 0; ls_i2 < UINT64_C(2); ls_i2++) {
            {
                int64_t ls_args[] = { v0, v2 };
                f1(ls_make_params(ls_args, 2), path);
            }
        }
    } else {
        ls_remove(&v0, UINT64_C(0), INT64_C(666));
        for (uint64_t ls_i2 = 0; ls_i2 < UINT64_C(2); ls_i2++) {
            ls_contains(v0, UINT64_C(0), INT64_C(951));
        }
    }
    if ((path >> 1) & 1) {
        ls_remove(&v0, UINT64_C(0), INT64_C(141));
    }
    for (uint64_t ls_i1 = 0; ls_i1 < UINT64_C(2); ls_i1++) {
        {
            int64_t v3 = ls_new(&data, UINT64_C(3));
            (void)v3;
            ls_contains(v0, UINT64_C(0), INT64_C(797));
        }
        int64_t v4 = ls_new(&data, UINT64_C(4));
        (void)v4;
        ls_insert(&v4, UINT64_C(4), INT64_C(258));
    }
    for (uint64_t ls_i1 = 0; ls_i1 < UINT64_C(2); ls_i1++) {
        ls_remove(&v0, UINT64_C(0), INT64_C(432));
    }
    {
        int64_t ls_args[] = { v0 };
        f1(ls_make_params(ls_args, 1), path);
    }
}

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
            if (argv[i][0] < '0' || argv[i][0] > '9' || *end != '\0' || errno == ERANGE) {
                fprintf(stderr, "error: PATH must be a decimal integer in [0, 2^64), got '%s'\n", argv[i]);
                return 2;
            }
            got_path = 1;
        } else {
            fprintf(stderr, "error: unexpected argument '%s'; usage: [PATH] [--debug]\n", argv[i]);
            return 2;
        }
    }
    f2(ls_make_params(NULL, 0), path);
    printf("CHECKSUM %" PRIu64 "\n", ls_checksum);
    return 0;
}

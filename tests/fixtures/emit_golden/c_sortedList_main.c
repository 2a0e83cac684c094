/* Generated benchmark program: 3 function(s), sortedList container. */
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

ls_params ls_make_params(ls_obj **items, size_t len)
{
    ls_params params;
    params.items = items;
    params.len = len;
    params.consumed = 0;
    params.base = ls_next_id;
    return params;
}

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

void f0(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    ls_obj *v0 = ls_new(&data);
    ls_insert(v0, INT64_C(430));
    ls_free(&data, v0);
}

void f1(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    ls_obj *v0 = ls_new(&data);
    ls_contains(v0, INT64_C(840));
    if ((path >> 0) & 1) {
        ls_insert(v0, INT64_C(12));
    }
    ls_free(&data, v0);
}

void f2(ls_params data, uint64_t path)
{
    (void)data;
    (void)path;
    f0(ls_make_params(NULL, 0), path);
    ls_obj *v0 = ls_new(&data);
    ls_insert(v0, INT64_C(895));
    ls_remove(v0, INT64_C(264));
    ls_contains(v0, INT64_C(513));
    {
        ls_obj *v1 = ls_new(&data);
        ls_contains(v0, INT64_C(700));
        ls_free(&data, v1);
    }
    if ((path >> 0) & 1) {
        ls_obj *v2 = ls_new(&data);
        ls_insert(v2, INT64_C(475));
        for (uint64_t ls_i0 = 0; ls_i0 < UINT64_C(2); ls_i0++) {
            {
                {
                    ls_obj *ls_args0[] = { v0, v2 };
                    f1(ls_make_params(ls_args0, 2), path);
                }
            }
        }
        ls_free(&data, v2);
    } else {
        ls_remove(v0, INT64_C(666));
        for (uint64_t ls_i1 = 0; ls_i1 < UINT64_C(2); ls_i1++) {
            {
                ls_contains(v0, INT64_C(951));
            }
        }
    }
    if ((path >> 1) & 1) {
        ls_remove(v0, INT64_C(141));
    }
    for (uint64_t ls_i2 = 0; ls_i2 < UINT64_C(2); ls_i2++) {
        {
            ls_obj *v3 = ls_new(&data);
            ls_contains(v0, INT64_C(797));
            ls_free(&data, v3);
        }
        {
            ls_obj *v4 = ls_new(&data);
            ls_insert(v4, INT64_C(258));
            ls_free(&data, v4);
        }
    }
    for (uint64_t ls_i3 = 0; ls_i3 < UINT64_C(2); ls_i3++) {
        {
            ls_remove(v0, INT64_C(432));
        }
    }
    {
        ls_obj *ls_args1[] = { v0 };
        f1(ls_make_params(ls_args1, 1), path);
    }
    ls_free(&data, v0);
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
        }
    }
    f2(ls_make_params(NULL, 0), path);
    printf("CHECKSUM %" PRIu64 "\n", ls_checksum);
    return 0;
}

int main() {
    int i;
    int j;
    int k;
    float a[10000000];
    float b[10000000];
    float c[10000000];
    float d[10000000];
    float e[400000];
    float f[400000];
    b[0] = 1.0;
    d[0] = 1.0;
    f[0] = 1.0;
    #pragma acc data copyin(b) copyout(a)
    #pragma acc kernels
    for (i = 0; i < 10000000; i++) {
        a[i] = b[i] * 2.0;
    }
    for (j = 0; j < 10000000; j++) {
        c[j] = d[j] * 3.0;
    }
    #pragma acc data copyin(f) copyout(e)
    #pragma acc kernels
    for (k = 0; k < 400000; k++) {
        e[k] = f[k] + 1.0;
    }
    a[0] = c[0] + e[0];
    return 0;
}

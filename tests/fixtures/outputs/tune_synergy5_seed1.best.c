int main() {
    int t;
    int i;
    int k;
    int u;
    int p;
    int q;
    float a[1000];
    float b[1000];
    float g[1000000];
    float y[100000];
    float z[100000];
    float scale;
    b[0] = 1.0;
    g[0] = 1.0;
    y[0] = 1.0;
    z[0] = 1.0;
    scale = 1.5;
    #pragma acc data copy(a,b)
    for (t = 0; t < 5000; t++) {
        scale = scale * 1.001;
        #pragma acc data copyin(scale)
        #pragma acc kernels
        for (i = 0; i < 1000; i++) {
            a[i] = b[i] * scale;
        }
        #pragma acc kernels
        for (k = 0; k < 1000; k++) {
            b[k] = b[k] + a[k];
        }
    }
    #pragma acc data copy(g)
    #pragma acc kernels
    for (u = 0; u < 1000000; u++) {
        g[u] = g[u] + 0.5;
    }
    for (p = 0; p < 100000; p++) {
        y[p] = y[p] * 2.0;
    }
    for (q = 0; q < 100000; q++) {
        z[q] = z[q] * 3.0;
    }
    return 0;
}

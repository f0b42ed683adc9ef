int main() {
    int t;
    int i;
    int u;
    float m[20000][1000];
    float v[1000];
    v[0] = 1.0;
    #pragma acc data copy(m) copyin(v)
    #pragma acc kernels
    for (t = 0; t < 20000; t++) {
        for (i = 0; i < 1000; i++) {
            m[t][i] = m[t][i] + v[i];
        }
    }
    for (u = 0; u < 1000; u++) {
        v[u] = v[u] * 1.01;
    }
    m[0][0] = m[0][0] * 2.0;
    return 0;
}

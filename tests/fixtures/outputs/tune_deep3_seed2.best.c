int main() {
    int t;
    int i;
    int j;
    int k;
    float acc;
    float m[500][500];
    float v[500];
    float w[500];
    v[0] = 1.0;
    w[0] = 2.0;
    m[0][0] = 0.0;
    acc = 0.0;
    #pragma acc data copyin(v,w)
    for (t = 0; t < 40; t++) {
        #pragma acc data copy(m)
        #pragma acc kernels
        for (i = 0; i < 500; i++) {
            for (j = 0; j < 500; j++) {
                m[i][j] = m[i][j] + v[i] * w[j];
            }
        }
        acc = acc + m[t][t];
    }
    for (k = 0; k < 500; k++) {
        v[k] = v[k] * 0.5;
    }
    return 0;
}

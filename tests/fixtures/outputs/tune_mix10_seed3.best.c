int main() {
    int i0;
    float a0[1000];
    float b0[1000];
    float s0;
    int i1;
    float a1[1000];
    float b1[1000];
    float s1;
    int i2;
    float a2[1000];
    float b2[1000];
    float s2;
    int i3;
    float a3[1000];
    float b3[1000];
    float s3;
    int i4;
    float a4[1000];
    float b4[1000];
    float s4;
    int i5;
    float a5[1000];
    float b5[1000];
    float s5;
    int i6;
    float a6[1000];
    float b6[1000];
    float s6;
    int i7;
    float a7[1000];
    float b7[1000];
    float s7;
    int i8;
    float a8[1000];
    float b8[1000];
    float s8;
    int i9;
    float a9[1000];
    float b9[1000];
    float s9;
    s0 = 0.5;
    b0[0] = 1.0;
    s1 = 1.5;
    b1[0] = 1.0;
    s2 = 2.5;
    b2[0] = 1.0;
    s3 = 3.5;
    b3[0] = 1.0;
    s4 = 4.5;
    b4[0] = 1.0;
    s5 = 5.5;
    b5[0] = 1.0;
    s6 = 6.5;
    b6[0] = 1.0;
    s7 = 7.5;
    b7[0] = 1.0;
    s8 = 8.5;
    b8[0] = 1.0;
    s9 = 9.5;
    b9[0] = 1.0;
    #pragma acc data copy(a0) copyin(b0,s0)
    #pragma acc kernels
    for (i0 = 0; i0 < 10000000; i0++) {
        a0[i0] = a0[i0] * s0 + b0[i0];
    }
    #pragma acc data copy(a1) copyin(b1,s1)
    #pragma acc kernels
    for (i1 = 0; i1 < 2000000; i1++) {
        a1[i1] = a1[i1] * s1 + b1[i1];
    }
    #pragma acc data copy(a2) copyin(b2,s2)
    #pragma acc kernels
    for (i2 = 0; i2 < 2000000; i2++) {
        a2[i2] = a2[i2] * s2 + b2[i2];
    }
    #pragma acc data copy(a3) copyin(b3,s3)
    #pragma acc kernels
    for (i3 = 0; i3 < 2000000; i3++) {
        a3[i3] = a3[i3] * s3 + b3[i3];
    }
    #pragma acc data copy(a4) copyin(b4,s4)
    #pragma acc kernels
    for (i4 = 0; i4 < 2000000; i4++) {
        a4[i4] = a4[i4] * s4 + b4[i4];
    }
    #pragma acc data copy(a5) copyin(b5,s5)
    #pragma acc kernels
    for (i5 = 0; i5 < 2000000; i5++) {
        a5[i5] = a5[i5] * s5 + b5[i5];
    }
    #pragma acc data copy(a6) copyin(b6,s6)
    #pragma acc kernels
    for (i6 = 0; i6 < 2000000; i6++) {
        a6[i6] = a6[i6] * s6 + b6[i6];
    }
    for (i7 = 0; i7 < 2000000; i7++) {
        a7[i7] = a7[i7] * s7 + b7[i7];
    }
    for (i8 = 0; i8 < 2000000; i8++) {
        a8[i8] = a8[i8] * s8 + b8[i8];
    }
    for (i9 = 0; i9 < 2000000; i9++) {
        a9[i9] = a9[i9] * s9 + b9[i9];
    }
    return 0;
}
